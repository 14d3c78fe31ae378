"""Benchmark registry: the paper's six applications by name.

Each builder accepts a ``scale`` in (0, 1] that shrinks the input so test
and benchmark suites can trade runtime for statistical depth; ``scale=1``
is the experiment-harness default size.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.apps.audiobeamformer import build_audiobeamformer_app
from repro.apps.base import BenchmarkApp
from repro.apps.channelvocoder import build_channelvocoder_app
from repro.apps.complex_fir import build_complex_fir_app
from repro.apps.fft_app import build_fft_app
from repro.apps.jpeg import build_jpeg_app
from repro.apps.mp3 import build_mp3_app


def _scaled(value: int, scale: float, minimum: int, multiple: int = 1) -> int:
    scaled = max(minimum, int(value * scale))
    return max(minimum, (scaled // multiple) * multiple)


def _build_jpeg(scale: float = 1.0) -> BenchmarkApp:
    return build_jpeg_app(
        width=_scaled(160, scale, 32, 8), height=_scaled(120, scale, 24, 8),
        quality=90,
    )


def _build_mp3(scale: float = 1.0) -> BenchmarkApp:
    return build_mp3_app(n_samples=_scaled(30_000, scale, 2_000))


def _build_fft(scale: float = 1.0) -> BenchmarkApp:
    return build_fft_app(n_frames=_scaled(256, scale, 16))


def _build_complex_fir(scale: float = 1.0) -> BenchmarkApp:
    return build_complex_fir_app(n_frames=_scaled(16_384, scale, 512))


def _build_audiobeamformer(scale: float = 1.0) -> BenchmarkApp:
    return build_audiobeamformer_app(n_frames=_scaled(8_192, scale, 512))


def _build_channelvocoder(scale: float = 1.0) -> BenchmarkApp:
    return build_channelvocoder_app(n_frames=_scaled(8_192, scale, 512))


APP_BUILDERS: dict[str, Callable[..., BenchmarkApp]] = {
    "audiobeamformer": _build_audiobeamformer,
    "channelvocoder": _build_channelvocoder,
    "complex-fir": _build_complex_fir,
    "fft": _build_fft,
    "jpeg": _build_jpeg,
    "mp3": _build_mp3,
}

#: The order the paper lists its benchmarks in (Figs. 8 and 11-14).
APP_ORDER = tuple(APP_BUILDERS)


class Grading(NamedTuple):
    """How an app's quality is graded, known without building it.

    ``metric`` is the built app's ``metric``.  A ``self_referenced`` app
    is graded against its own error-free output (its ``reference`` is
    ``None``); the lossy codecs are graded against their raw media.
    """

    metric: str
    self_referenced: bool


#: Each registered app's :class:`Grading`; a test pins it against the
#: built apps.
APP_GRADING: dict[str, Grading] = {
    "audiobeamformer": Grading("snr", True),
    "channelvocoder": Grading("snr", True),
    "complex-fir": Grading("snr", True),
    "fft": Grading("snr", True),
    "jpeg": Grading("psnr", False),
    "mp3": Grading("snr", False),
}


def build_app(name: str, scale: float = 1.0) -> BenchmarkApp:
    """Build a benchmark by its paper name (e.g. ``"jpeg"``)."""
    try:
        builder = APP_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown app {name!r}; choose from {sorted(APP_BUILDERS)}"
        ) from None
    return builder(scale=scale)
