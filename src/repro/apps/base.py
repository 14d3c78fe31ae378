"""Common packaging for benchmark applications."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.machine.protection import ProtectionLevel
from repro.machine.runstats import RunResult
from repro.machine.system import run_program
from repro.quality.metrics import psnr_db, snr_db
from repro.streamit.program import StreamProgram
from repro.words import _UINT32_CODE, WORD_MASK, words_to_float_array

_SIGN_BIT = 1 << 31


def words_to_floats(words: Sequence[int]) -> np.ndarray:
    """Decode a sink's word stream as float32 samples."""
    return words_to_float_array(words)


def words_to_ints(words: Sequence[int]) -> np.ndarray:
    """Decode 32-bit words as signed two's-complement int64 values.

    The batched :func:`repro.words.word_to_int`: mask, then sign-extend.
    Words in ``[0, 2**32)``, as the queues carry, convert in one C-speed
    pass: an ``array`` of 4-byte unsigned items (which raises
    :class:`OverflowError` on any other int) read back as int32.
    """
    try:
        unsigned = array(_UINT32_CODE, words)
    except OverflowError:
        values = np.asarray(words, dtype=np.int64) & WORD_MASK
        return (values ^ _SIGN_BIT) - _SIGN_BIT
    return np.frombuffer(unsigned, dtype=np.int32).astype(np.int64)


def ints_to_words(values: np.ndarray) -> list:
    """Encode int64 values as 32-bit words (truncating), as Python ints.

    The batched :func:`repro.words.int_to_word`; a 2-D array gives one list
    of words per row.
    """
    return (values & WORD_MASK).tolist()


def clipped_float_decoder(limit: float) -> Callable[[Sequence[int]], np.ndarray]:
    """Float decoder that saturates to ``[-limit, limit]``.

    Real sinks write bounded formats (16-bit PCM, 8-bit pixels); a bit flip
    in a float32 exponent must saturate at the output device rather than
    contribute an astronomically large squared error.
    """

    def decode(words: Sequence[int]) -> np.ndarray:
        values = words_to_floats(words)
        return np.clip(np.nan_to_num(values, nan=0.0), -limit, limit)

    return decode


@dataclass
class BenchmarkApp:
    """One benchmark: a compiled program plus its quality evaluation.

    ``reference``
        The signal quality is judged against.  For jpeg/mp3 this is the raw
        (pre-compression) media; for the other apps it is the error-free
        run's output, computed lazily on first use.
    ``decode_output``
        Maps the sink's collected words into the reference's domain.
    ``metric``
        ``"snr"`` or ``"psnr"``.
    """

    name: str
    program: StreamProgram
    sink_name: str
    metric: str = "snr"
    decode_output: Callable[[Sequence[int]], np.ndarray] = field(
        default=words_to_floats
    )
    reference: np.ndarray | None = None
    #: Quality of the error-free run vs the reference (lossy-codec baseline;
    #: infinity for the direct-comparison apps).
    error_free_quality: float | None = None
    _error_free_output: np.ndarray | None = field(default=None, repr=False)

    def output_signal(self, result: RunResult) -> np.ndarray:
        return self.decode_output(result.outputs[self.sink_name])

    def error_free_output(self) -> np.ndarray:
        """Output of an error-free run (cached)."""
        if self._error_free_output is None:
            result = run_program(self.program, ProtectionLevel.ERROR_FREE)
            self._error_free_output = self.output_signal(result)
        return self._error_free_output

    def adopt_error_free_output(self, output: np.ndarray) -> None:
        """Cache *output*, the decoded output of an ``ERROR_FREE`` run of
        this program simulated elsewhere, unless one is cached already.
        No error is injected in such a run, so its output is the one
        :meth:`error_free_output` would simulate, bit for bit."""
        if self._error_free_output is None:
            self._error_free_output = output

    def reference_signal(self) -> np.ndarray:
        return self.reference if self.reference is not None else self.error_free_output()

    def quality(self, result: RunResult) -> float:
        """SNR/PSNR of a run's output against the app's reference (dB)."""
        out = self.output_signal(result)
        ref = self.reference_signal()
        if self.metric == "psnr":
            return psnr_db(ref, out)
        return snr_db(ref, out)

    def baseline_quality(self) -> float:
        """Error-free quality (the lossy-compression baseline of Section 6)."""
        if self.error_free_quality is not None:
            return self.error_free_quality
        if self.metric == "psnr":
            self.error_free_quality = psnr_db(
                self.reference_signal(), self.error_free_output()
            )
        else:
            self.error_free_quality = snr_db(
                self.reference_signal(), self.error_free_output()
            )
        return self.error_free_quality
