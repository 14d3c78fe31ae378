"""The streaming mp3 decoder graph.

::

    G0_parser -> G1_dequant -> G2_matrix -> G3_window -> sink

* **G0** parser (source): unpacks one codec frame per firing from the
  (reliably read) container and pushes the 32 scalefactor indices plus the
  384 sample-major quantised codes (416 words).
* **G1** dequantizer: codes + scalefactors -> 384 float subband samples.
* **G2** matrixing: one 32-sample granule -> 64 V values (the 64-point
  cosine matrix of the synthesis bank); fires 12x per frame.
* **G3** windowing: 64 V values -> 32 PCM samples, holding the decoder's
  1024-entry V buffer — large persistent state exposed to the error
  injector.
* **sink** collects PCM words.

A frame computation is one steady-state iteration = one codec frame
(384 PCM samples).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import ints_to_words
from repro.apps.jpeg.bitio import BitReader
from repro.apps.mp3 import bitstream as bs
from repro.apps.mp3.codec import FrameDecoder, _round_f32, dequantize_sample
from repro.apps.mp3.filterbank import N_BANDS, SynthesisWindow, synthesis_matrix
from repro.apps.mp3.quantize import SAMPLES_PER_BAND
from repro.streamit.filters import Batch, Filter, FloatSink
from repro.streamit.graph import StreamGraph
from repro.words import float_to_word, word_to_float, word_to_uint

FRAME_WORDS = N_BANDS + N_BANDS * SAMPLES_PER_BAND  # 32 scalefactors + 384 codes


class Mp3Parser(Filter):
    """G0: frame unpacker (source node), one frame period per firing.

    The container is read reliably and the injector never reaches the
    parser's state (it has no :meth:`state_words`), so firing *i* hands
    out the same words in every run: the parser decodes the whole
    container once, on its first :meth:`reset` (never at construction, so
    building an app decodes nothing), and each firing hands out a copy of
    the next period's words.
    """

    #: Codec frames per frame period (one per channel).
    channels = 1

    def __init__(self, name: str, data: bytes) -> None:
        self.header = bs.read_header(BitReader(data))
        super().__init__(
            name, input_rates=(), output_rates=(self.channels * FRAME_WORDS,)
        )
        self._data = data
        self._periods: list[list[int]] | None = None
        self._periods_decoded = 0

    def reset(self) -> None:
        if self._periods is None:
            decoder = FrameDecoder(self._data)
            periods = []
            for _ in range(self.header.n_frames):
                period: list[int] = []
                for _channel in range(self.channels):
                    scalefactors, codes = decoder.next_frame_raw()
                    period += scalefactors
                    period += codes
                periods.append(period)
            self._periods = ints_to_words(np.array(periods, dtype=np.int64))
        self._periods_decoded = 0

    @property
    def total_firings(self) -> int:
        return self.header.n_frames

    def instruction_cost(self) -> int:
        # Bit-field extraction for 384 codes + 32 scalefactors per frame.
        return 200 + 12 * self.output_rates[0]

    def work(self, inputs: Batch) -> Batch:
        if self._periods is None:
            self.reset()
        assert self._periods is not None
        if self._periods_decoded >= len(self._periods):
            return [[0] * self.output_rates[0]]
        words = self._periods[self._periods_decoded]
        self._periods_decoded += 1
        return [words.copy()]


class Mp3Dequantizer(Filter):
    """G1: scalefactored uniform dequantisation (416 -> 384 floats)."""

    def __init__(self, name: str, bit_allocation: tuple[int, ...]) -> None:
        super().__init__(
            name,
            input_rates=(FRAME_WORDS,),
            output_rates=(N_BANDS * SAMPLES_PER_BAND,),
        )
        self.bit_allocation = bit_allocation

    def instruction_cost(self) -> int:
        # Scalefactor lookup, scale, clamp and store per sample.
        return 100 + 15 * N_BANDS * SAMPLES_PER_BAND

    def work(self, inputs: Batch) -> Batch:
        words = inputs[0]
        scalefactors = [word_to_uint(w) & 0x3F for w in words[:N_BANDS]]
        out = []
        for s in range(SAMPLES_PER_BAND):
            for band in range(N_BANDS):
                code = word_to_uint(words[N_BANDS + s * N_BANDS + band])
                value = dequantize_sample(
                    code, scalefactors[band], self.bit_allocation[band]
                )
                out.append(float_to_word(value))
        return [out]


class Mp3Matrix(Filter):
    """G2: 64-point synthesis matrixing (32 -> 64), stateless."""

    def __init__(self, name: str) -> None:
        super().__init__(name, input_rates=(N_BANDS,), output_rates=(64,))

    def instruction_cost(self) -> int:
        # 64x32 multiply-accumulates at ~3 instructions each.
        return 100 + 3 * 64 * N_BANDS

    def work(self, inputs: Batch) -> Batch:
        granule = np.array([word_to_float(w) for w in inputs[0]])
        v64 = synthesis_matrix(granule)
        return [[float_to_word(float(v)) for v in v64]]


class Mp3Window(Filter):
    """G3: V-buffer shift + 512-tap windowing (64 -> 32 PCM)."""

    def __init__(self, name: str) -> None:
        super().__init__(name, input_rates=(64,), output_rates=(N_BANDS,))
        self._window = SynthesisWindow()

    def reset(self) -> None:
        self._window.reset()

    def instruction_cost(self) -> int:
        # 512 window MACs + the U-vector gathering and the V shift.
        return 200 + 6 * 512

    def work(self, inputs: Batch) -> Batch:
        v64 = np.array([word_to_float(w) for w in inputs[0]])
        pcm = self._window.process(v64)
        return [[float_to_word(_round_f32(float(v))) for v in pcm]]

    def state_words(self) -> list[int]:
        return [float_to_word(float(v)) for v in self._window.v_buffer]

    def write_state_word(self, index: int, word: int) -> None:
        self._window.v_buffer[index] = word_to_float(word)


class Mp3StereoParser(Mp3Parser):
    """G0 for stereo streams: unpacks one frame period (L + R) per firing."""

    channels = 2

    def __init__(self, name: str, data: bytes) -> None:
        super().__init__(name, data)
        if self.header.n_channels != 2:
            raise ValueError("stream is not stereo")


def build_mp3_stereo_graph(encoded: bytes) -> StreamGraph:
    """The stereo decoder: a split-join of two synthesis chains (10 nodes).

    ::

        G0 -> split ==> (G1 -> G2 -> G3) L \
                    ==> (G1 -> G2 -> G3) R  --> join -> sink

    The joiner interleaves granule-wise: 32 left PCM samples, then 32
    right.  Channels realign independently under errors (each chain has
    its own frame headers).
    """
    from repro.streamit.filters import RoundRobinJoiner, RoundRobinSplitter

    graph = StreamGraph()
    parser = graph.add_node(Mp3StereoParser("G0_parser", encoded))
    splitter = graph.add_node(
        RoundRobinSplitter("split", weights=[FRAME_WORDS, FRAME_WORDS])
    )
    joiner = graph.add_node(RoundRobinJoiner("join", weights=[N_BANDS, N_BANDS]))
    sink = graph.add_node(FloatSink("sink", rate=2 * N_BANDS))
    graph.connect(parser, splitter)
    for port, channel in enumerate("LR"):
        dequant = graph.add_node(
            Mp3Dequantizer(f"G1_dequant_{channel}", parser.header.bit_allocation)
        )
        matrix = graph.add_node(Mp3Matrix(f"G2_matrix_{channel}"))
        window = graph.add_node(Mp3Window(f"G3_window_{channel}"))
        graph.connect(splitter, dequant, src_port=port)
        graph.connect(dequant, matrix)
        graph.connect(matrix, window)
        graph.connect(window, joiner, dst_port=port)
    graph.connect(joiner, sink)
    return graph


def build_mp3_graph(encoded: bytes) -> StreamGraph:
    """Build the streaming decoder graph for an encoded audio stream."""
    graph = StreamGraph()
    parser = graph.add_node(Mp3Parser("G0_parser", encoded))
    dequant = graph.add_node(
        Mp3Dequantizer("G1_dequant", parser.header.bit_allocation)
    )
    matrix = graph.add_node(Mp3Matrix("G2_matrix"))
    window = graph.add_node(Mp3Window("G3_window"))
    sink = graph.add_node(FloatSink("sink", rate=N_BANDS))
    graph.connect(parser, dequant)
    graph.connect(dequant, matrix)
    graph.connect(matrix, window)
    graph.connect(window, sink)
    return graph
