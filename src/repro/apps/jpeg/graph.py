"""The streaming jpeg decoder: the 10-node graph of the paper's Figure 1.

::

    F0 -> F1 -> F2 ==> F3R \\
                  ==> F3G  --> F4 -> F5 -> F6 -> F7
                  ==> F3B /

* **F0** parser: entropy-decodes one MCU per firing from the (reliably
  read) container file and pushes 192 zigzag coefficients (Y, Cb, Cr).
* **F1** dequantize + de-zigzag (192 -> 192).
* **F2** inverse DCT + level shift; duplicates the three planes to the
  color nodes (the paper's data-parallel stage).
* **F3R/F3G/F3B** color conversion, one RGB channel each (192 -> 64).
* **F4** joins the channels (64,64,64 -> 192).
* **F5** clamps to the 8-bit pixel range.
* **F6** interleaves per-pixel RGB — pushing 192 items per firing, one
  8x8-pixel region of 3-item pixels, exactly as in the paper's Figure 2.
* **F7** assembles rows of blocks into raster rows and collects the image —
  popping ``width*8*3`` items per firing (15360 at the paper's 640-pixel
  width).

A frame computation is one steady-state iteration = one row of 8x8 blocks,
matching the paper's observation that jpeg output frames are rows 8 pixels
high (Fig. 7).

F1 to F6 override :meth:`~repro.streamit.filters.Filter.work_many`
with span kernels.  F1, F2, F3 and F5 convert each port once per span and
run the codec's block kernels over all of its blocks; those kernels are
elementwise or, in F2's IDCT, one :func:`~repro.apps.jpeg.dct.inverse_dct`
per block, so each firing's words come out bit for bit as its ``work``
gives them.  F4 slices and F6 gathers per firing; F7 is an index gather.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.apps.base import ints_to_words, words_to_ints
from repro.apps.jpeg.codec import (
    MCU_COMPONENTS,
    JpegHeader,
    clamp_pixels,
    color_channel,
    decode_mcus,
    dequantize_blocks,
    idct_blocks,
    parse_header,
)
from repro.streamit.filters import Batch, Filter, IntSink
from repro.streamit.graph import StreamGraph

PIXELS = 64  # pixels per 8x8 region, and samples per block
MCU_WORDS = PIXELS * len(MCU_COMPONENTS)  # one block each of Y, Cb and Cr


class JpegParser(Filter):
    """F0: entropy decoder (Huffman + RLE + DC prediction), one MCU/firing.

    The container file itself is I/O and read reliably; the parser's
    *output* traffic and item counts are exposed to the error injector like
    any other thread's.  The injector never reaches the decoder's state
    (the parser has no :meth:`state_words`), so MCU *i* has the same words
    in every run: the parser decodes the whole container once, on its first
    :meth:`reset` (never at construction, so building an app decodes
    nothing), and each firing hands out a copy of the next MCU's words.
    """

    def __init__(self, name: str, data: bytes) -> None:
        header, _ = parse_header(data)
        super().__init__(name, input_rates=(), output_rates=(MCU_WORDS,))
        self._data = data
        self.header = header
        self._mcus: list[list[int]] | None = None
        self._mcus_decoded = 0

    def reset(self) -> None:
        if self._mcus is None:
            _, mcus = decode_mcus(self._data)
            self._mcus = ints_to_words(np.array(mcus, dtype=np.int64))
        self._mcus_decoded = 0

    @property
    def total_firings(self) -> int:
        return self.header.mcus

    def instruction_cost(self) -> int:
        # Bit-serial Huffman decode of each coefficient: the per-bit code
        # walk plus amplitude bits costs ~60 instructions per coefficient.
        return 300 + 60 * self.output_rates[0]

    def work(self, inputs: Batch) -> Batch:
        if self._mcus is None:
            self.reset()
        assert self._mcus is not None
        if self._mcus_decoded >= len(self._mcus):
            # Stream exhausted (end of computation).
            return [[0] * self.output_rates[0]]
        words = self._mcus[self._mcus_decoded]
        self._mcus_decoded += 1
        return [words.copy()]


class JpegDequantizer(Filter):
    """F1: de-zigzag and dequantize every component block of an MCU."""

    def __init__(self, name: str, header: JpegHeader) -> None:
        self._tables = header.block_tables()
        rate = self._tables.size
        super().__init__(name, input_rates=(rate,), output_rates=(rate,))

    def instruction_cost(self) -> int:
        # Zigzag table lookup, multiply and store per coefficient.
        return 80 + 12 * self.input_rates[0]

    def work(self, inputs: Batch) -> Batch:
        coeffs = words_to_ints(inputs[0]).reshape(-1, 64)
        return [ints_to_words(dequantize_blocks(coeffs, self._tables).ravel())]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        coeffs = words_to_ints(inputs[0]).reshape(-1, 64)
        tables = np.tile(self._tables, (firings, 1))
        return [ints_to_words(dequantize_blocks(coeffs, tables).ravel())]


class JpegIdct(Filter):
    """F2: inverse DCT + level shift of every block, the planes duplicated
    to the three color nodes."""

    def __init__(self, name: str) -> None:
        super().__init__(name, input_rates=(MCU_WORDS,), output_rates=(MCU_WORDS,) * 3)

    def instruction_cost(self) -> int:
        # Separable 8x8 IDCT per plane: 2x8x64 MACs at ~4 instructions
        # each plus rounding/level shift (~80 per output item).
        return 400 + 80 * self.input_rates[0]

    def work(self, inputs: Batch) -> Batch:
        levels = words_to_ints(inputs[0]).reshape(-1, 64)
        out = ints_to_words(idct_blocks(levels).ravel())
        return [out] + [out.copy() for _ in self.output_rates[1:]]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        # A span's blocks are its firings' blocks back to back, and every
        # port carries them all: ``work`` is the kernel.
        return self.work(inputs)


class JpegColorChannel(Filter):
    """F3R/F3G/F3B: one RGB channel of an 8x8 region from its Y, Cb and Cr
    planes (192 -> 64)."""

    def __init__(self, name: str, channel: int) -> None:
        super().__init__(name, input_rates=(3 * PIXELS,), output_rates=(PIXELS,))
        self.channel = channel

    def instruction_cost(self) -> int:
        # Three multiplies, adds and a round per produced pixel sample.
        return 60 + 18 * self.output_rates[0]

    def work(self, inputs: Batch) -> Batch:
        ycc = words_to_ints(inputs[0]).reshape(3, -1)
        return [ints_to_words(color_channel(ycc, self.channel))]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        # Each firing's Y, Cb and Cr planes, as (firings, 3, pixels).
        ycc = words_to_ints(inputs[0]).reshape(firings, 3, -1)
        rgb = color_channel(ycc.transpose(1, 0, 2), self.channel)
        return [ints_to_words(rgb.ravel())]


class JpegChannelJoiner(Filter):
    """F4: merge the R, G and B planes (64,64,64 -> 192)."""

    def __init__(self, name: str) -> None:
        super().__init__(name, input_rates=(PIXELS,) * 3, output_rates=(3 * PIXELS,))

    def instruction_cost(self) -> int:
        return 50 + 6 * self.output_rates[0]

    def work(self, inputs: Batch) -> Batch:
        return [inputs[0] + inputs[1] + inputs[2]]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        red, green, blue = inputs
        joined: list[int] = []
        for start in range(0, firings * PIXELS, PIXELS):
            end = start + PIXELS
            joined += red[start:end]
            joined += green[start:end]
            joined += blue[start:end]
        return [joined]


class JpegClamper(Filter):
    """F5: saturate every sample to the 8-bit pixel range."""

    def __init__(self, name: str) -> None:
        super().__init__(name, input_rates=(3 * PIXELS,), output_rates=(3 * PIXELS,))

    def instruction_cost(self) -> int:
        return 50 + 8 * self.input_rates[0]

    def work(self, inputs: Batch) -> Batch:
        return [ints_to_words(clamp_pixels(words_to_ints(inputs[0])))]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        # Elementwise: ``work`` is the kernel.
        return self.work(inputs)


class JpegPixelFormatter(Filter):
    """F6: plane order -> per-pixel interleaved RGB (192 -> 192)."""

    _gather = itemgetter(
        *[plane * PIXELS + pixel for pixel in range(PIXELS) for plane in range(3)]
    )

    def __init__(self, name: str) -> None:
        super().__init__(name, input_rates=(3 * PIXELS,), output_rates=(3 * PIXELS,))

    def instruction_cost(self) -> int:
        return 50 + 8 * self.input_rates[0]

    def work(self, inputs: Batch) -> Batch:
        return [list(self._gather(inputs[0]))]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        return [gather_each(self._gather, inputs[0], self.input_rates[0])]


def gather_each(gather: itemgetter, words: list[int], rate: int) -> list[int]:
    """*gather* applied to each *rate*-word firing of *words*, the results
    back to back: the span of a filter whose firing is one gather."""
    out: list[int] = []
    for start in range(0, len(words), rate):
        out += gather(words[start : start + rate])
    return out


class JpegRowAssembler(IntSink):
    """F7: assemble one row of 8x8 regions per firing into raster scan
    order."""

    def __init__(self, name: str, blocks_x: int) -> None:
        region = 3 * PIXELS
        super().__init__(name, rate=blocks_x * region)
        self._gather = itemgetter(
            *[
                block * region + 3 * (y * 8 + x) + rgb
                for y in range(8)
                for block in range(blocks_x)
                for x in range(8)
                for rgb in range(3)
            ]
        )

    def instruction_cost(self) -> int:
        return 80 + 8 * self.input_rates[0]

    def work(self, inputs: Batch) -> Batch:
        self.collected.extend(self._gather(inputs[0]))
        return []


def build_jpeg_graph(encoded: bytes) -> StreamGraph:
    """Build the 10-node Fig. 1 decoder graph for an encoded image."""
    graph = StreamGraph()
    parser = graph.add_node(JpegParser("F0_parser", encoded))
    header = parser.header
    dequant = graph.add_node(JpegDequantizer("F1_dequant", header))
    idct = graph.add_node(JpegIdct("F2_idct"))
    color_r = graph.add_node(JpegColorChannel("F3R_color", channel=0))
    color_g = graph.add_node(JpegColorChannel("F3G_color", channel=1))
    color_b = graph.add_node(JpegColorChannel("F3B_color", channel=2))
    join = graph.add_node(JpegChannelJoiner("F4_join"))
    clamp = graph.add_node(JpegClamper("F5_clamp"))
    formatter = graph.add_node(JpegPixelFormatter("F6_format"))
    assembler = graph.add_node(JpegRowAssembler("F7_rows", header.blocks_x))
    graph.connect(parser, dequant)
    graph.connect(dequant, idct)
    for port, node in enumerate((color_r, color_g, color_b)):
        graph.connect(idct, node, src_port=port)
        graph.connect(node, join, dst_port=port)
    graph.connect(join, clamp)
    graph.connect(clamp, formatter)
    graph.connect(formatter, assembler)
    return graph
