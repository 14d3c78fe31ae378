"""The ``jpeg`` benchmark: baseline-JPEG-style codec + 10-node decoder graph.

Quality methodology follows Section 6 of the paper: the raw image is the
reference; the error-free decode of the lossy-compressed stream sets the
baseline PSNR (35.6 dB in the paper); error-prone decodes are then compared
against the same raw reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.apps.base import BenchmarkApp, words_to_ints
from repro.apps.jpeg.codec import decode_image, encode_image
from repro.apps.jpeg.graph import build_jpeg_graph
from repro.quality.images import synthetic_image
from repro.streamit.program import StreamProgram


def jpeg_output_decoder(width: int, height: int):
    """Decode the F7 sink's word stream into an (H, W, 3) uint8-range image."""

    def decode(words: Sequence[int]) -> np.ndarray:
        pixels = np.zeros(width * height * 3, dtype=np.int64)
        n = min(len(words), pixels.shape[0])
        pixels[:n] = words_to_ints(words[:n])
        # Words are 8-bit pixel values unless corrupted downstream of F5;
        # saturate exactly like a framebuffer write would.
        return np.clip(pixels, 0, 255).reshape(height, width, 3)

    return decode


def build_jpeg_app(
    width: int = 64,
    height: int = 48,
    quality: int = 75,
    seed: int = 7,
    image: np.ndarray | None = None,
) -> BenchmarkApp:
    """Package the jpeg benchmark (the paper's 10-node Fig. 1 decoder) for
    a (synthetic) test image."""
    raw = image if image is not None else synthetic_image(width, height, seed=seed)
    height, width = raw.shape[0], raw.shape[1]
    encoded = encode_image(raw, quality=quality)
    program = StreamProgram.compile(build_jpeg_graph(encoded))
    return BenchmarkApp(
        name="jpeg",
        program=program,
        sink_name="F7_rows",
        metric="psnr",
        decode_output=jpeg_output_decoder(width, height),
        reference=raw.astype(np.float64),
    )


__all__ = ["build_jpeg_app", "decode_image", "encode_image", "jpeg_output_decoder"]
