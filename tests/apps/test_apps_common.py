"""Cross-cutting checks over all six benchmarks (small scale).

For every app: the error-free simulated run matches the reference (invariant
5), a guarded error-free run is identical, output lengths are as expected,
and runs are deterministic.
"""

import math

import numpy as np
import pytest

from repro.apps import build_app
from repro.apps.registry import APP_BUILDERS, APP_GRADING, APP_ORDER
from repro.machine.protection import ProtectionLevel
from repro.machine.system import run_program

SCALE = 0.1


@pytest.fixture(scope="module")
def apps():
    return {name: build_app(name, scale=SCALE) for name in APP_ORDER}


class TestRegistry:
    def test_all_six_paper_benchmarks_present(self):
        assert set(APP_BUILDERS) == {
            "audiobeamformer",
            "channelvocoder",
            "complex-fir",
            "fft",
            "jpeg",
            "mp3",
        }

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown app"):
            build_app("doom")

    def test_app_metadata(self, apps):
        for name, app in apps.items():
            assert app.name == name
            assert app.metric in ("snr", "psnr")
            assert app.sink_name in app.program.expected_output_lengths()

    def test_grading_fact_matches_the_built_apps(self, apps):
        # The engine reads APP_GRADING instead of building apps.
        assert set(APP_GRADING) == set(APP_BUILDERS)
        for name, app in apps.items():
            assert APP_GRADING[name] == (app.metric, app.reference is None)


@pytest.mark.parametrize("name", APP_ORDER)
class TestPerApp:
    def test_error_free_guarded_matches_plain(self, apps, name):
        app = apps[name]
        plain = run_program(app.program, ProtectionLevel.ERROR_FREE)
        guarded = run_program(app.program, ProtectionLevel.COMMGUARD, mtbe=None)
        assert plain.outputs == guarded.outputs

    def test_output_length_expected(self, apps, name):
        app = apps[name]
        result = run_program(app.program, ProtectionLevel.ERROR_FREE)
        expected = app.program.expected_output_lengths()[app.sink_name]
        assert len(result.outputs[app.sink_name]) == expected

    def test_deterministic_under_errors(self, apps, name):
        app = apps[name]
        a = run_program(app.program, ProtectionLevel.COMMGUARD, mtbe=30_000, seed=3)
        b = run_program(app.program, ProtectionLevel.COMMGUARD, mtbe=30_000, seed=3)
        assert a.outputs == b.outputs

    def test_terminates_at_extreme_error_rate(self, apps, name):
        app = apps[name]
        result = run_program(
            app.program, ProtectionLevel.COMMGUARD, mtbe=10_000, seed=0
        )
        assert not result.hung
        expected = app.program.expected_output_lengths()[app.sink_name]
        assert len(result.outputs[app.sink_name]) == expected

    def test_quality_metric_computes(self, apps, name):
        app = apps[name]
        result = run_program(app.program, ProtectionLevel.COMMGUARD, mtbe=20_000, seed=1)
        quality = app.quality(result)
        assert not math.isnan(quality)


class TestLossyBaselines:
    """Section 6: jpeg/mp3 quality is measured against the raw input."""

    def test_jpeg_baseline_finite(self, apps):
        baseline = apps["jpeg"].baseline_quality()
        assert 20.0 < baseline < 50.0

    def test_mp3_baseline_near_paper(self, apps):
        baseline = apps["mp3"].baseline_quality()
        assert 6.0 < baseline < 16.0  # paper: 9.4 dB

    def test_direct_comparison_apps_have_infinite_baseline(self, apps):
        for name in ("audiobeamformer", "channelvocoder", "complex-fir", "fft"):
            assert apps[name].baseline_quality() == math.inf

    def test_error_free_output_cached(self, apps):
        app = apps["fft"]
        first = app.error_free_output()
        assert app.error_free_output() is first
