"""mp3-style encoder and reference decoder.

Encoder: PCM -> analysis filterbank -> per-band scalefactors + uniform
quantisation -> bitstream.  Decoder: bitstream -> dequantisation ->
synthesis filterbank -> PCM.  The reference decoder mirrors the streaming
graph's arithmetic exactly (same float32 word rounding at the stage
boundaries), so an error-free simulated run reproduces it bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.apps.jpeg.bitio import BitReader, BitWriter
from repro.apps.mp3 import bitstream as bs
from repro.apps.mp3.filterbank import (
    N_BANDS,
    SYSTEM_DELAY,
    AnalysisFilterbank,
    SynthesisWindow,
    synthesis_matrix,
)
from repro.apps.mp3.quantize import (
    DEFAULT_BIT_ALLOCATION,
    FRAME_SAMPLES,
    SAMPLES_PER_BAND,
    dequantize_code,
    quantize_band,
    scalefactor_index,
    scalefactor_value,
)
from repro.words import float_to_word, word_to_float


def _round_f32(value: float) -> float:
    """Round to float32, the precision words carry between stages."""
    return word_to_float(float_to_word(value))


def encode_audio(
    samples: np.ndarray, bit_allocation: list[int] | None = None
) -> bytes:
    """Encode mono PCM (float, ~[-1, 1], shape ``(n,)``) into the
    container byte stream.

    The input is padded to a whole number of frames plus the filterbank's
    system delay, so the decoder can deliver the full original extent.
    """
    allocation = list(bit_allocation or DEFAULT_BIT_ALLOCATION)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("samples must be mono, shape (n,)")
    n_frames = -(-(samples.shape[0] + SYSTEM_DELAY) // FRAME_SAMPLES)
    padded = np.zeros(n_frames * FRAME_SAMPLES, dtype=np.float64)
    padded[: len(samples)] = samples

    analysis = AnalysisFilterbank()
    writer = BitWriter()
    bs.write_header(writer, n_frames, allocation)
    for frame in range(n_frames):
        chunk = padded[frame * FRAME_SAMPLES : (frame + 1) * FRAME_SAMPLES]
        # 12 granules of 32 subband samples: subbands[band][s].
        subbands = np.empty((N_BANDS, SAMPLES_PER_BAND))
        for s in range(SAMPLES_PER_BAND):
            subbands[:, s] = analysis.process(chunk[s * N_BANDS : (s + 1) * N_BANDS])
        scalefactors = []
        codes: list[list[int]] = []
        for band in range(N_BANDS):
            index = scalefactor_index(float(np.max(np.abs(subbands[band]))))
            scalefactors.append(index)
            scale = scalefactor_value(index)
            codes.append(quantize_band(subbands[band], scale, allocation[band]))
        bs.write_frame(writer, scalefactors, codes, allocation)
    return writer.getvalue()


def dequantize_sample(code: int, scalefactor_idx: int, bits: int) -> float:
    """Dequantize one transmitted code (float32-rounded, as a word carries it).

    This is the arithmetic of the streaming dequantizer node; the reference
    decoder funnels through it too, so the two stay bit-identical.
    """
    if not 0 <= scalefactor_idx < 64:
        scalefactor_idx = min(63, max(0, scalefactor_idx))
    return _round_f32(
        dequantize_code(code, scalefactor_value(scalefactor_idx), bits)
    )


class FrameDecoder:
    """Sequential frame decoder over the entropy stream.

    Shared by the reference decoder and the streaming parser node F0.
    :meth:`next_frame_raw` yields the transmitted integers (scalefactor
    indices + sample-major codes); :meth:`next_frame` additionally
    dequantizes into granules of 32 float32-rounded subband samples.
    """

    def __init__(self, data: bytes) -> None:
        self._reader = BitReader(data)
        self.header = bs.read_header(self._reader)

    def next_frame_raw(self) -> tuple[list[int], list[int]]:
        """Returns (32 scalefactor indices, 384 sample-major codes)."""
        scalefactors, codes = bs.read_frame(
            self._reader, self.header.bit_allocation
        )
        flat = []
        for s in range(SAMPLES_PER_BAND):
            for band in range(N_BANDS):
                flat.append(codes[band][s])
        return scalefactors, flat

    def next_frame(self) -> list[list[float]]:
        scalefactors, flat = self.next_frame_raw()
        granules = []
        for s in range(SAMPLES_PER_BAND):
            granule = []
            for band in range(N_BANDS):
                granule.append(
                    dequantize_sample(
                        flat[s * N_BANDS + band],
                        scalefactors[band],
                        self.header.bit_allocation[band],
                    )
                )
            granules.append(granule)
        return granules


def decode_audio(data: bytes, length: int | None = None) -> np.ndarray:
    """Reference (error-free) decoder: container bytes -> mono PCM ``(n,)``.

    Compensates the filterbank's system delay; ``length`` trims to the
    original signal extent.  Mirrors the streaming graph's arithmetic.
    """
    decoder = FrameDecoder(data)
    window = SynthesisWindow()
    out: list[np.ndarray] = []
    for _frame in range(decoder.header.n_frames):
        for granule in decoder.next_frame():
            v64 = synthesis_matrix(np.asarray(granule, dtype=np.float64))
            v64 = np.array([_round_f32(v) for v in v64])
            pcm = window.process(v64)
            out.append(np.array([_round_f32(v) for v in pcm]))
    signal = np.concatenate(out)[SYSTEM_DELAY:]
    return signal if length is None else signal[:length]
