"""The streaming jpeg decoder for 4:2:0 chroma-subsampled streams.

Same shape as the Fig. 1 graph but with 16x16-pixel MCUs (4 luma blocks +
2 subsampled chroma blocks = 384 coefficients per parser firing) and an
explicit chroma-upsampling node between the IDCT and the color stages —
11 nodes total:

::

    F0 -> F1 -> F2 -> F2U ==> F3R \\
                          ==> F3G  --> F4 -> F5 -> F6 -> F7
                          ==> F3B /

Data layouts: F0/F1/F2 carry the six blocks plane-ordered
``[Y0, Y1, Y2, Y3, Cb, Cr]`` (64 values each); F2U assembles the 16x16
luma plane and nearest-neighbour-upsamples the chroma planes, pushing
``[Y(256), Cb(256), Cr(256)]`` (768 words) to each color node; downstream
nodes are the 4:4:4 graph's at 256 pixels per region.
"""

from __future__ import annotations

from operator import itemgetter

from repro.apps.jpeg.codec import UPSAMPLE_420
from repro.apps.jpeg.graph import (
    JpegChannelJoiner,
    JpegClamper,
    JpegColorChannel,
    JpegDequantizer,
    JpegIdct,
    JpegParser,
    JpegPixelFormatter,
    JpegRowAssembler,
    gather_each,
)
from repro.streamit.filters import Batch, Filter
from repro.streamit.graph import StreamGraph

MCU_WORDS = 6 * 64   # coefficients per 16x16 MCU
PIXEL_WORDS = 3 * 256  # RGB words per 16x16 region


class Jpeg420Upsampler(Filter):
    """F2U: assemble the 16x16 luma plane, upsample chroma, duplicate."""

    _gather = itemgetter(*UPSAMPLE_420)

    def __init__(self, name: str) -> None:
        super().__init__(
            name,
            input_rates=(MCU_WORDS,),
            output_rates=(PIXEL_WORDS, PIXEL_WORDS, PIXEL_WORDS),
        )

    def instruction_cost(self) -> int:
        return 100 + 6 * PIXEL_WORDS

    def work(self, inputs: Batch) -> Batch:
        plane = self._gather(inputs[0])
        return [list(plane), list(plane), list(plane)]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        planes = gather_each(self._gather, inputs[0], MCU_WORDS)
        return [planes, planes.copy(), planes.copy()]


def build_jpeg420_graph(encoded: bytes) -> StreamGraph:
    """Build the 11-node 4:2:0 decoder graph for an encoded image."""
    graph = StreamGraph()
    parser = graph.add_node(JpegParser("F0_parser", encoded))
    header = parser.header
    if header.subsampling != "420":
        raise ValueError("stream is not 4:2:0 subsampled")
    side = header.mcu_side
    dequant = graph.add_node(JpegDequantizer("F1_dequant", header))
    idct = graph.add_node(JpegIdct("F2_idct", blocks=6, copies=1))
    upsample = graph.add_node(Jpeg420Upsampler("F2U_upsample"))
    color_r = graph.add_node(JpegColorChannel("F3R_color", channel=0, side=side))
    color_g = graph.add_node(JpegColorChannel("F3G_color", channel=1, side=side))
    color_b = graph.add_node(JpegColorChannel("F3B_color", channel=2, side=side))
    join = graph.add_node(JpegChannelJoiner("F4_join", side=side))
    clamp = graph.add_node(JpegClamper("F5_clamp", side=side))
    formatter = graph.add_node(JpegPixelFormatter("F6_format", side=side))
    assembler = graph.add_node(
        JpegRowAssembler("F7_rows", header.width // side, side=side)
    )
    graph.connect(parser, dequant)
    graph.connect(dequant, idct)
    graph.connect(idct, upsample)
    for port, node in enumerate((color_r, color_g, color_b)):
        graph.connect(upsample, node, src_port=port)
        graph.connect(node, join, dst_port=port)
    graph.connect(join, clamp)
    graph.connect(clamp, formatter)
    graph.connect(formatter, assembler)
    return graph
