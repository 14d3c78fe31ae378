"""Reusable signal-processing filters for the DSP benchmarks.

These mirror the building blocks of the StreamIt benchmark suite: FIR
filters (with persistent delay-line state, exposed to the error injector via
the filter-state hooks), gains, magnitude stages and FFT butterfly stages.
Instruction costs are derived from the filters' actual arithmetic (about two
instructions per multiply-accumulate plus loop overhead), which is what
anchors the MTBE axis and the overhead figures to something physical.

The float filters override
:meth:`~repro.streamit.filters.Filter.work_many` with span kernels: a
span's words are converted once (:func:`repro.words.words_to_float_array`,
:func:`repro.words.float_array_to_words`), while every output keeps the
arithmetic ``work`` gives it: the same ``np.dot`` call per output, on
operands of the same length, element order and 16-byte alignment.  A
stacked matrix-vector product would call ``dgemv`` and may round
differently, and some BLAS kernels (OpenBLAS's Prescott ``ddot``) round
differently on an operand that is not 16-byte aligned, as a slice at an
odd offset is.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Sequence

import numpy as _np

from repro.streamit.filters import Batch, Filter
from repro.words import (
    float_array_to_words,
    float_to_word,
    word_to_float,
    words_to_float_array,
)


def lowpass_taps(n_taps: int, cutoff: float) -> list[float]:
    """Windowed-sinc low-pass FIR taps (normalized cutoff in (0, 0.5])."""
    if not 0 < cutoff <= 0.5:
        raise ValueError("cutoff must be a normalized frequency in (0, 0.5]")
    taps = []
    middle = (n_taps - 1) / 2.0
    for i in range(n_taps):
        x = i - middle
        value = 2 * cutoff if x == 0 else math.sin(2 * math.pi * cutoff * x) / (math.pi * x)
        window = 0.54 - 0.46 * math.cos(2 * math.pi * i / (n_taps - 1))  # Hamming
        taps.append(value * window)
    return taps


def bandpass_taps(n_taps: int, low: float, high: float) -> list[float]:
    """Windowed-sinc band-pass FIR taps (difference of two low-passes)."""
    hi = lowpass_taps(n_taps, high)
    lo = lowpass_taps(n_taps, low)
    return [h - l for h, l in zip(hi, lo)]


class FirFilter(Filter):
    """Real FIR filter with a persistent (corruptible) delay line."""

    def __init__(
        self,
        name: str,
        taps: Sequence[float],
        rate: int = 1,
        decimation: int = 1,
    ) -> None:
        if decimation != 1 and rate != 1:
            raise ValueError("decimation only supported at rate 1")
        super().__init__(
            name,
            input_rates=(rate * decimation,),
            output_rates=(rate,),
        )
        self.taps = list(taps)
        self._taps_arr = _np.asarray(self.taps, dtype=_np.float64)
        self.decimation = decimation
        self._history = [0.0] * (len(self.taps) - 1)

    def reset(self) -> None:
        self._history = [0.0] * (len(self.taps) - 1)

    def instruction_cost(self) -> int:
        # ~16 x86 instructions per multiply-accumulate in StreamIt
        # cluster-backend code (loads, mul, add, buffer indexing, per-item
        # call overhead) per produced sample.
        produced = self.output_rates[0]
        return 30 + produced * (16 * len(self.taps) + 20)

    def work(self, inputs: Batch) -> Batch:
        samples = [word_to_float(w) for w in inputs[0]]
        extended = self._history + samples
        window = _np.asarray(extended, dtype=_np.float64)
        outputs = []
        n_state = len(self._history)
        for k in range(0, len(samples), self.decimation):
            pos = n_state + k
            segment = window[max(0, pos - len(self.taps) + 1) : pos + 1][::-1]
            outputs.append(float(_np.dot(self._taps_arr[: segment.shape[0]], segment)))
        if n_state:
            self._history = extended[-n_state:]
        return [[float_to_word(v) for v in outputs]]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        n_state = len(self._history)
        extended = _np.concatenate(
            (_np.asarray(self._history, dtype=_np.float64),
             words_to_float_array(inputs[0]))
        )
        n_taps = len(self.taps)
        taps = self._taps_arr
        dot = _np.dot
        positions = range(n_state, len(extended), self.decimation)
        outputs = _np.empty(len(positions))
        for index, pos in enumerate(positions):
            lo = max(0, pos - n_taps + 1)
            outputs[index] = dot(taps[: pos + 1 - lo], extended[lo : pos + 1][::-1])
        if n_state:
            self._history = extended[-n_state:].tolist()
        return [float_array_to_words(outputs)]

    def state_words(self) -> list[int]:
        return [float_to_word(v) for v in self._history]

    def write_state_word(self, index: int, word: int) -> None:
        self._history[index] = word_to_float(word)


class ComplexFirFilter(Filter):
    """Complex FIR filter over interleaved (re, im) word pairs."""

    def __init__(self, name: str, taps: Sequence[complex], pairs_per_firing: int = 1) -> None:
        rate = 2 * pairs_per_firing
        super().__init__(name, input_rates=(rate,), output_rates=(rate,))
        self.taps = list(taps)
        self._taps_arr = _np.asarray(self.taps, dtype=_np.complex128)
        self.pairs_per_firing = pairs_per_firing
        self._history = [0j] * (len(self.taps) - 1)

    def reset(self) -> None:
        self._history = [0j] * (len(self.taps) - 1)

    def instruction_cost(self) -> int:
        # Complex MAC: 4 multiplies + 2 adds plus loads, indexing and the
        # cluster backend's per-item overheads: ~24 per tap.
        return 40 + self.pairs_per_firing * (24 * len(self.taps) + 30)

    def work(self, inputs: Batch) -> Batch:
        words = inputs[0]
        samples = [
            complex(word_to_float(words[2 * i]), word_to_float(words[2 * i + 1]))
            for i in range(self.pairs_per_firing)
        ]
        extended = self._history + samples
        window = _np.asarray(extended, dtype=_np.complex128)
        n_state = len(self._history)
        out_words: list[int] = []
        for k in range(len(samples)):
            pos = n_state + k
            segment = window[max(0, pos - len(self.taps) + 1) : pos + 1][::-1]
            acc = complex(_np.dot(self._taps_arr[: segment.shape[0]], segment))
            out_words.append(float_to_word(acc.real))
            out_words.append(float_to_word(acc.imag))
        if n_state:
            self._history = extended[-n_state:]
        return [out_words]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        n_state = len(self._history)
        parts = words_to_float_array(inputs[0])
        extended = _np.empty(n_state + len(parts) // 2, dtype=_np.complex128)
        extended[:n_state] = self._history
        # Assigned part by part, as complex(re, im) builds each sample:
        # re + 1j * im would turn an infinite imaginary part into a NaN
        # real part.
        extended.real[n_state:] = parts[0::2]
        extended.imag[n_state:] = parts[1::2]
        n_taps = len(self.taps)
        taps = self._taps_arr
        dot = _np.dot
        outputs = _np.empty(len(extended) - n_state, dtype=_np.complex128)
        for index, pos in enumerate(range(n_state, len(extended))):
            lo = max(0, pos - n_taps + 1)
            outputs[index] = dot(taps[: pos + 1 - lo], extended[lo : pos + 1][::-1])
        if n_state:
            self._history = extended[-n_state:].tolist()
        # A complex array viewed as floats interleaves (re, im), as the
        # output port does.
        return [float_array_to_words(outputs.view(_np.float64))]

    def state_words(self) -> list[int]:
        words: list[int] = []
        for value in self._history:
            words.append(float_to_word(value.real))
            words.append(float_to_word(value.imag))
        return words

    def write_state_word(self, index: int, word: int) -> None:
        value = self._history[index // 2]
        if index % 2 == 0:
            self._history[index // 2] = complex(word_to_float(word), value.imag)
        else:
            self._history[index // 2] = complex(value.real, word_to_float(word))


class Gain(Filter):
    """Scalar gain stage."""

    def __init__(self, name: str, gain: float, rate: int = 1) -> None:
        super().__init__(name, input_rates=(rate,), output_rates=(rate,))
        self.gain = gain

    def instruction_cost(self) -> int:
        return 20 + 10 * self.input_rates[0]

    def work(self, inputs: Batch) -> Batch:
        return [
            [float_to_word(self.gain * word_to_float(w)) for w in inputs[0]]
        ]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        samples = words_to_float_array(inputs[0])
        with _np.errstate(over="ignore", invalid="ignore"):  # floats never warn
            scaled = self.gain * samples
        return [float_array_to_words(scaled)]


class WeightedCombiner(Filter):
    """Weighted sum of n interleaved channels: pops n, pushes 1."""

    def __init__(self, name: str, weights: Sequence[float]) -> None:
        super().__init__(name, input_rates=(len(weights),), output_rates=(1,))
        self.weights = list(weights)
        self._weights_arr = _np.asarray(self.weights, dtype=_np.float64)

    def instruction_cost(self) -> int:
        return 25 + 6 * len(self.weights)

    def work(self, inputs: Batch) -> Batch:
        acc = sum(
            weight * word_to_float(word)
            for weight, word in zip(self.weights, inputs[0])
        )
        return [[float_to_word(acc)]]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        samples = words_to_float_array(inputs[0])
        with _np.errstate(over="ignore", invalid="ignore"):  # floats never warn
            products = (samples.reshape(firings, -1) * self._weights_arr).tolist()
        # The built-in sum over each firing's Python floats, as ``work``
        # sums them (its rounding is the interpreter's, not numpy's).
        sums = _np.array([sum(row) for row in products])
        return [float_array_to_words(sums)]


class BitReverseReorder(Filter):
    """FFT input reordering: bit-reverse permutation of N complex points."""

    def __init__(self, name: str, n_points: int) -> None:
        if n_points & (n_points - 1):
            raise ValueError("n_points must be a power of two")
        rate = 2 * n_points
        super().__init__(name, input_rates=(rate,), output_rates=(rate,))
        self.n_points = n_points
        bits = n_points.bit_length() - 1
        permutation = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n_points)]
        #: Output word i is input word gather[i] (re and im of each point).
        self._gather = itemgetter(
            *[2 * j + part for j in permutation for part in (0, 1)]
        )

    def instruction_cost(self) -> int:
        # Table-driven permutation: index load, two element moves per point.
        return 40 + 16 * self.n_points

    def work(self, inputs: Batch) -> Batch:
        return [list(self._gather(inputs[0]))]


class ButterflyStage(Filter):
    """One radix-2 DIT FFT stage over N complex points (stage index s >= 1)."""

    def __init__(self, name: str, n_points: int, stage: int) -> None:
        rate = 2 * n_points
        super().__init__(name, input_rates=(rate,), output_rates=(rate,))
        self.n_points = n_points
        self.stage = stage
        span = 1 << stage  # butterfly group size at this stage
        self.span = span
        half = span // 2
        #: The twiddles' real and imaginary parts.
        self._twiddle_parts = (
            _np.array([math.cos(-2 * math.pi * k / span) for k in range(half)]),
            _np.array([math.sin(-2 * math.pi * k / span) for k in range(half)]),
        )

    def instruction_cost(self) -> int:
        # N/2 butterflies, ~80 instructions each (complex multiply, two
        # complex add/subs, twiddle loads, element loads/stores, indexing).
        return 60 + 40 * self.n_points

    def work(self, inputs: Batch) -> Batch:
        return [self._transform(inputs[0], 1)]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        return [self._transform(inputs[0], firings)]

    def _transform(self, words: list[int], firings: int) -> list[int]:
        """This stage's butterflies over *firings* firings' interleaved
        (re, im) words, all points of a stage at once.

        The complex multiply is spelled out in real float64 operations in
        CPython's order (``re = tr*hr - ti*hi``, ``im = tr*hi + ti*hr``), so
        every output rounds as the complex arithmetic of a per-point loop.
        """
        values = words_to_float_array(words).reshape(firings, -1, self.span, 2)
        half = self.span // 2
        lo_re, lo_im = values[..., :half, 0], values[..., :half, 1]
        hi_re, hi_im = values[..., half:, 0], values[..., half:, 1]
        tw_re, tw_im = self._twiddle_parts
        out = _np.empty_like(values)
        # Python's complex arithmetic never warns on inf or NaN.
        with _np.errstate(over="ignore", invalid="ignore"):
            twiddled_re = tw_re * hi_re - tw_im * hi_im
            twiddled_im = tw_re * hi_im + tw_im * hi_re
            out[..., half:, 0] = lo_re - twiddled_re
            out[..., half:, 1] = lo_im - twiddled_im
            out[..., :half, 0] = lo_re + twiddled_re
            out[..., :half, 1] = lo_im + twiddled_im
        return float_array_to_words(out.reshape(-1))
