"""Span kernels: every ``Filter.work_many`` override against per-firing ``work``.

A kernel computes a span of consecutive firings at once, each port's words
back to back; it must equal the same firings' ``work`` calls on a twin
instance in every output word, and leave exactly the state the same
firings leave run one by one, because the precise path flips state bits
between firings.  Each test
drives twin filters through the same stream of firings, split into spans
of 1-64 firings at random, with random ``write_state_word`` flips between
spans, on full-range random words mixed with NaN, infinity, denormal and
signed-zero patterns.  The batched word helpers must equal the scalar
ones bit for bit.

Run these under another OpenBLAS kernel with ``OPENBLAS_CORETYPE`` set
(for example ``Prescott``): the kernels keep the per-output ``np.dot``
calls of ``work``, and jpeg's IDCT its two matrix products per block, so
they must stay exact there too.
"""

from __future__ import annotations

import cmath
import copy
import functools
import importlib
import math
import pkgutil
import random
import warnings

import numpy as np
import pytest

import repro
from repro.apps.audiobeamformer import _steering_taps
from repro.apps.channelvocoder import VocoderBand
from repro.apps.dsp import (
    BitReverseReorder,
    ButterflyStage,
    ComplexFirFilter,
    FirFilter,
    Gain,
    WeightedCombiner,
    bandpass_taps,
)
from repro.apps.jpeg.codec import JpegHeader, encode_image, parse_header
from repro.apps.jpeg.graph import (
    JpegChannelJoiner,
    JpegClamper,
    JpegColorChannel,
    JpegDequantizer,
    JpegIdct,
    JpegPixelFormatter,
)
from repro.apps.mp3.codec import dequantize_sample
from repro.apps.mp3.filterbank import N_BANDS
from repro.apps.mp3.graph import Mp3Dequantizer, Mp3Matrix, Mp3Window
from repro.apps.mp3.quantize import DEFAULT_BIT_ALLOCATION, SAMPLES_PER_BAND
from repro.machine.protection import ProtectionLevel
from repro.machine.system import SystemConfig, run_program
from repro.quality.images import synthetic_image
from repro.streamit.builders import pipeline
from repro.streamit.filters import (
    DuplicateSplitter,
    Filter,
    IntSink,
    IntSource,
    RoundRobinJoiner,
    RoundRobinSplitter,
)
from repro.streamit.program import StreamProgram
from repro.words import (
    float_array_to_words,
    float_to_word,
    word_to_float,
    words_to_float_array,
)

#: Words whose float32 meaning is special: quiet, signalling, negative
#: and payload NaNs, the infinities, denormals, the zeros, the extremes.
SPECIAL_WORDS = (
    0x7FC00000, 0x7F800001, 0xFFC00001, 0x7FFFFFFF,
    0x7F800000, 0xFF800000,
    0x00000001, 0x807FFFFF, 0x00400000,
    0x00000000, 0x80000000,
    0x7F7FFFFF, 0xFF7FFFFF, 0x3F800000,
)


def random_word(rng: random.Random) -> int:
    draw = rng.random()
    if draw < 0.15:
        return rng.choice(SPECIAL_WORDS)
    if draw < 0.5:
        return rng.getrandbits(32)
    return float_to_word(rng.uniform(-4.0, 4.0))


def _chirp(n_taps: int) -> list[complex]:
    return [
        cmath.exp(1j * (0.5 * k + 0.1 * k * k)) * math.exp(-k / n_taps)
        for k in range(n_taps)
    ]


@functools.cache
def _jpeg_header() -> JpegHeader:
    # Quality 10 saturates the chroma table at 255, the largest multiplier.
    image = synthetic_image(32, 32)
    return parse_header(encode_image(image, quality=10))[0]


#: One factory per kernel configuration worth telling apart.  The word
#: movers have no kernel: they run the default span body, whose per-port
#: split and join they check (no input port, several ports in or out).
KERNELS = {
    "fir": lambda: FirFilter("fir", _steering_taps(1)),
    "fir-rate3": lambda: FirFilter("fir", bandpass_taps(17, 0.1, 0.3), rate=3),
    "fir-decimating": lambda: FirFilter("fir", bandpass_taps(9, 0.1, 0.3), decimation=2),
    "fir-one-tap": lambda: FirFilter("fir", [0.75]),
    "complex-fir": lambda: ComplexFirFilter("cfir", _chirp(48)),
    "complex-fir-3pairs": lambda: ComplexFirFilter("cfir", _chirp(7), pairs_per_firing=3),
    "gain": lambda: Gain("gain", 0.5, rate=2),
    "combiner": lambda: WeightedCombiner("combine", [0.25] * 4),
    "combiner-mixed": lambda: WeightedCombiner("combine", [0.1, -0.7, 0.3]),
    "vocoder-band": lambda: VocoderBand("band", 0.02, 0.12),
    "butterfly-1": lambda: ButterflyStage("bf", 64, 1),
    "butterfly-3": lambda: ButterflyStage("bf", 64, 3),
    "butterfly-6": lambda: ButterflyStage("bf", 64, 6),
    "mp3-matrix": lambda: Mp3Matrix("G2"),
    "mp3-window": lambda: Mp3Window("G3"),
    "jpeg-dequant": lambda: JpegDequantizer("F1", _jpeg_header()),
    "jpeg-idct": lambda: JpegIdct("F2"),
    "jpeg-color-r": lambda: JpegColorChannel("F3R", channel=0),
    "jpeg-color-b": lambda: JpegColorChannel("F3B", channel=2),
    "jpeg-join": lambda: JpegChannelJoiner("F4"),
    "jpeg-clamp": lambda: JpegClamper("F5"),
    "jpeg-format": lambda: JpegPixelFormatter("F6"),
    "int-source": lambda: IntSource("src", list(range(7, 7 + 3 * 150)), rate=3),
    "int-sink": lambda: IntSink("sink", rate=2),
    "duplicate": lambda: DuplicateSplitter("dup", n_branches=3, rate=2),
    "rr-splitter": lambda: RoundRobinSplitter("split", [1, 2, 3]),
    "rr-joiner": lambda: RoundRobinJoiner("join", [2, 1, 3]),
}


def _repro_filter_classes() -> set[type]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, todo = set(), [Filter]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("repro.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_every_kernel_is_tested():
    kernels = {
        cls for cls in _repro_filter_classes()
        if cls.__dict__.get("work_many", Filter.work_many) is not Filter.work_many
    }
    tested = {type(make()) for make in KERNELS.values()}
    assert kernels <= tested, sorted(c.__name__ for c in kernels - tested)


def _batches(rng, node, firings):
    return [
        [[random_word(rng) for _ in range(rate)] for rate in node.input_rates]
        for _ in range(firings)
    ]


def _back_to_back(batches, n_ports: int) -> list[list[int]]:
    """Per-firing batches as ``work_many`` takes and returns them: one
    list per port, the firings' words back to back."""
    return [[word for batch in batches for word in batch[port]] for port in range(n_ports)]


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("seed", [0, 1])
def test_span_equals_per_firing_work(name, seed):
    rng = random.Random(f"{name}-{seed}")
    spanned, stepped = KERNELS[name](), KERNELS[name]()
    spanned.reset()
    stepped.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # np.dot on inf, NaN
        for _span in range(12):
            firings = rng.randint(1, 64)
            batches = _batches(rng, stepped, firings)
            want = [stepped.work(copy.deepcopy(batch)) for batch in batches]
            given = _back_to_back(batches, spanned.n_inputs)
            got = spanned.work_many(given, firings)
            assert got == _back_to_back(want, stepped.n_outputs)
            ids = [id(port) for port in got]
            assert len(set(ids)) == len(ids), "an output list is shared"
            assert not set(ids) & {id(port) for port in given}, "an input list came back"
            assert spanned.state_words() == stepped.state_words()
            state = stepped.state_words()
            for _flip in range(rng.randint(0, 3) if state else 0):
                index, word = rng.randrange(len(state)), random_word(rng)
                spanned.write_state_word(index, word)
                stepped.write_state_word(index, word)
    if isinstance(stepped, IntSink):
        assert spanned.collected == stepped.collected


@pytest.mark.parametrize(
    "name", ["fir", "fir-rate3", "fir-decimating", "fir-one-tap", "complex-fir",
             "complex-fir-3pairs", "vocoder-band"]
)
def test_dot_operands_are_aligned_as_in_work(name, monkeypatch):
    """Some BLAS kernels (OpenBLAS's Prescott ``ddot``) take another path,
    and round differently, on an operand that is not 16-byte aligned, as
    a slice at an odd offset is.  Every operand a kernel hands ``np.dot``
    is therefore a fresh array, as ``work``'s are, or a reversed view,
    which numpy copies into one."""
    misaligned = []
    dot = np.dot

    def spy(a, b, *args):
        for operand in (a, b):
            if min(operand.strides) >= 0 and operand.ctypes.data % 16:
                misaligned.append(operand.ctypes.data % 16)
        return dot(a, b, *args)

    monkeypatch.setattr(np, "dot", spy)
    node = KERNELS[name]()
    node.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # np.dot on inf, NaN
        batches = _batches(random.Random(name), node, 33)
        node.work_many(_back_to_back(batches, node.n_inputs), 33)
    assert misaligned == []


class Negated(FirFilter):
    """A custom FIR filter with its own ``work`` and no kernel."""

    def work(self, inputs):
        (words,) = super().work(inputs)
        return [[word ^ 0x80000000 for word in words]]


class TestSubclassWithItsOwnWork:
    """A subclass that overrides ``work`` and not ``work_many`` spans its
    own firings: it gets the default span body, never its parent's
    kernel."""

    def test_gets_the_default_span_body(self):
        assert Negated.work_many is Filter.work_many
        assert FirFilter.work_many is not Filter.work_many

        class Renamed(Negated):
            pass

        class WithKernel(Negated):
            def work_many(self, inputs, firings):
                return Filter.work_many(self, inputs, firings)

        assert Renamed.work_many is Filter.work_many
        assert WithKernel.work_many is WithKernel.__dict__["work_many"]

    def test_fast_spans_run_its_work(self, monkeypatch):
        spans = []
        work_many = Negated.work_many

        def spy(self, inputs, firings):
            spans.append(firings)
            return work_many(self, inputs, firings)

        monkeypatch.setattr(Negated, "work_many", spy)
        taps = bandpass_taps(9, 0.1, 0.3)
        source = [float_to_word(math.sin(0.3 * k)) for k in range(200)]

        def run(fir, exec_mode):
            program = StreamProgram.compile(
                pipeline([IntSource("src", source), fir, IntSink("snk")])
            )
            result = run_program(
                program,
                ProtectionLevel.ERROR_FREE,
                system_config=SystemConfig(exec_mode=exec_mode),
            )
            return result.outputs

        fast = run(Negated("fir", taps), "fast")
        assert max(spans) > 1  # raw-queue spans cross frames
        assert fast == run(Negated("fir", taps), "precise")
        plain = run(FirFilter("fir", taps), "fast")
        assert fast == {
            sink: [word ^ 0x80000000 for word in words] for sink, words in plain.items()
        }


class TestWideFiringsLostTheirLoops:
    """The one-wide-firing filters whose ``work`` went from a per-point
    Python loop to array code, against that loop kept here."""

    @staticmethod
    def butterfly_loop(node: ButterflyStage, words: list[int]) -> list[int]:
        values = [
            complex(word_to_float(words[2 * i]), word_to_float(words[2 * i + 1]))
            for i in range(node.n_points)
        ]
        half = node.span // 2
        twiddles = [
            complex(math.cos(-2 * math.pi * k / node.span),
                    math.sin(-2 * math.pi * k / node.span))
            for k in range(half)
        ]
        for base in range(0, node.n_points, node.span):
            for k in range(half):
                lo, hi = base + k, base + k + half
                twiddled = twiddles[k] * values[hi]
                values[hi] = values[lo] - twiddled
                values[lo] = values[lo] + twiddled
        return [float_to_word(part) for v in values for part in (v.real, v.imag)]

    @pytest.mark.parametrize("stage", range(1, 7))
    def test_butterfly(self, stage):
        rng = random.Random(stage)
        node = ButterflyStage("bf", 64, stage)
        for _ in range(100):
            words = [random_word(rng) for _ in range(128)]
            assert node.work([words]) == [self.butterfly_loop(node, words)]

    def test_bit_reverse_reorder(self):
        rng = random.Random(5)
        node = BitReverseReorder("reorder", 64)
        bits = 6
        for _ in range(20):
            words = [rng.getrandbits(32) for _ in range(128)]
            want = [0] * 128
            for i in range(64):
                j = int(format(i, f"0{bits}b")[::-1], 2)
                want[2 * i], want[2 * i + 1] = words[2 * j], words[2 * j + 1]
            assert node.work([words]) == [want]

    def test_mp3_dequantizer(self):
        rng = random.Random(6)
        node = Mp3Dequantizer("G1", tuple(DEFAULT_BIT_ALLOCATION))
        for _ in range(20):
            words = [
                rng.choice((rng.getrandbits(32), rng.randrange(8)))
                for _ in range(node.input_rates[0])
            ]
            scalefactors = [w & 0x3F for w in words[:N_BANDS]]
            want = [
                float_to_word(dequantize_sample(
                    words[N_BANDS + s * N_BANDS + band],
                    scalefactors[band],
                    DEFAULT_BIT_ALLOCATION[band],
                ))
                for s in range(SAMPLES_PER_BAND)
                for band in range(N_BANDS)
            ]
            assert node.work([words]) == [want]


class TestBatchedWordHelpers:
    def test_words_to_float_array_is_word_to_float(self):
        rng = random.Random(11)
        words = [rng.getrandbits(32) for _ in range(200_000)] + list(SPECIAL_WORDS)
        got = words_to_float_array(words)
        assert got.dtype == np.float64
        want = np.array([word_to_float(word) for word in words])
        # Compare bit patterns: NaNs and signed zeros included.
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_float_array_to_words_is_float_to_word(self):
        rng = random.Random(12)
        values = [
            rng.uniform(-1, 1) * 10.0 ** rng.uniform(-60, 60) for _ in range(200_000)
        ]
        values += [word_to_float(rng.getrandbits(32)) for _ in range(200_000)]
        values += [
            math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 5e-324, -1e-46,
            3.4028234663852886e38, 3.4028235677973366e38, 3.402823669209385e38,
            -3.4028235677973366e38, 1e300, -1e300,
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the helper silences numpy
            got = float_array_to_words(np.array(values))
        assert got == [float_to_word(value) for value in values]

    def test_shapes(self):
        assert float_array_to_words(np.array([[1.0, math.nan], [-0.0, 2.0]])) == [
            [0x3F800000, 0x7FC00000], [0x80000000, 0x40000000]
        ]
        assert float_array_to_words(np.array([])) == []
        assert words_to_float_array([]).shape == (0,)
