"""The ``mp3`` benchmark: MPEG-1-audio-style subband codec + decoder graph.

Quality methodology follows Section 6 of the paper: the raw PCM input is
the reference; the error-free decode of the compressed stream sets the
baseline SNR (9.4 dB in the paper); error-prone decodes are compared
against the same raw reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.apps.base import BenchmarkApp, words_to_floats
from repro.apps.mp3.codec import decode_audio, encode_audio
from repro.apps.mp3.filterbank import SYSTEM_DELAY
from repro.apps.mp3.graph import build_mp3_graph
from repro.quality.audio import multitone_signal
from repro.streamit.program import StreamProgram


def mp3_output_decoder(length: int):
    """Decode the sink's PCM words: delay-compensate, trim, saturate."""

    def decode(words: Sequence[int]) -> np.ndarray:
        pcm = words_to_floats(words)
        pcm = pcm[SYSTEM_DELAY : SYSTEM_DELAY + length]
        if pcm.shape[0] < length:
            pcm = np.concatenate([pcm, np.zeros(length - pcm.shape[0])])
        # A DAC saturates; exponent bit-flips must not explode the metric.
        return np.clip(np.nan_to_num(pcm, nan=0.0), -2.0, 2.0)

    return decode


def build_mp3_app(
    n_samples: int = 18_000, seed: int = 11, samples: np.ndarray | None = None
) -> BenchmarkApp:
    """Package the mp3 benchmark for a (synthetic) mono audio clip."""
    if samples is not None:
        raw = np.asarray(samples, dtype=np.float64)
    else:
        raw = np.asarray(multitone_signal(n_samples, seed=seed), dtype=np.float64)
    program = StreamProgram.compile(build_mp3_graph(encode_audio(raw)))
    return BenchmarkApp(
        name="mp3",
        program=program,
        sink_name="sink",
        metric="snr",
        decode_output=mp3_output_decoder(len(raw)),
        reference=raw,
    )


__all__ = ["build_mp3_app", "decode_audio", "encode_audio", "mp3_output_decoder"]
