"""Tests for the experiment runner and report helpers."""

import math

import pytest

from repro.experiments.aggregate import summarize
from repro.experiments.parallel import RunSpec
from repro.experiments.report import db_or_errorfree, format_table
from repro.experiments.runner import RunRecord, SimulationRunner, geometric_mean
from repro.machine.protection import ProtectionLevel

SCALE = 0.05


@pytest.fixture(scope="module")
def runner():
    return SimulationRunner(scale=SCALE)


class TestRunner:
    def test_app_cache(self, runner):
        assert runner.app("fft") is runner.app("fft")

    def test_record_fields(self, runner):
        record = runner.execute_spec(RunSpec(app="fft", mtbe=100_000, seed=0))
        assert isinstance(record, RunRecord)
        assert record.app == "fft"
        assert record.protection is ProtectionLevel.COMMGUARD
        assert record.committed_instructions > 0
        assert record.execution_time >= record.committed_instructions
        assert not record.hung
        assert set(record.subop_ratios) == {
            "fsm_counter",
            "ecc",
            "header_bit",
            "total",
        }

    def test_error_free_record_has_no_mtbe(self, runner):
        record = runner.execute_spec(
            RunSpec(app="fft", protection=ProtectionLevel.ERROR_FREE)
        )
        assert record.mtbe is None
        assert record.errors_injected == 0

    def test_quality_stats_caps_infinite(self, runner):
        """Runs no error reaches reproduce the error-free output (infinite
        quality); the multi-seed summary caps them."""
        records = [
            runner.execute_spec(RunSpec(app="fft", mtbe=1e12, seed=seed))
            for seed in (0, 1)
        ]
        assert all(math.isinf(r.quality_db) for r in records)
        stats = summarize([r.quality_db for r in records], cap=50.0)
        assert (stats.mean, stats.stdev) == (50.0, 0.0)

    def test_frame_scale_passed_through(self, runner):
        r1 = runner.execute_spec(RunSpec(app="fft", mtbe=None, frame_scale=1))
        r8 = runner.execute_spec(RunSpec(app="fft", mtbe=None, frame_scale=8))
        assert r8.frame_scale == 8
        assert r8.execution_time < r1.execution_time


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_geometric_mean_tolerates_zero(self):
        assert geometric_mean([0.0, 1.0]) > 0

    def test_geometric_mean_empty_is_nan(self):
        assert math.isnan(geometric_mean([]))

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "22.25" in text

    def test_format_table_inf_and_small(self):
        text = format_table(["x"], [[math.inf], [1e-6]])
        assert "inf" in text
        assert "e-06" in text or "1.00e-06" in text

    def test_db_or_errorfree(self):
        assert db_or_errorfree(math.inf) == "error-free"
        assert db_or_errorfree(120.0, cap=96.0) == "error-free"
        assert db_or_errorfree(20.24) == "20.2 dB"
