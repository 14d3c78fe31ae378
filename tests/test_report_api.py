"""Serializable report API: versioned JSON round trips and the CLI
``sweep --output`` / ``report`` pipeline.

Contracts:

* ``RunReport`` / ``SweepReport`` round-trip losslessly through
  ``to_json``/``from_json`` — records, failures, engine stats, options —
  and a deserialized report aggregates identically to the live one.
* Documents carry ``schema_version``; readers reject versions and kinds
  they cannot interpret, naming both.
* ``repro report FILE`` reproduces the summary ``repro sweep --output
  FILE`` printed, byte for byte.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.api import AppInfo, EngineOptions, RunReport, SweepReport, sweep
from repro.cli import main
from repro.experiments.parallel import FailureRecord, RunSpec, SweepStats
from repro.experiments.runner import RunRecord
from repro.machine.protection import ProtectionLevel

SCALE = 0.05
FAST = EngineOptions(scale=SCALE, jobs=1, cache=False)


class TestRunReportRoundTrip:
    def test_lossless_with_nondefault_fault_model(self):
        report = api.run(
            "fft", "commguard", mtbe="50k", seed=1,
            fault_model="burst:p_cluster=0.7", options=FAST,
        )
        loaded = RunReport.from_json(report.to_json())
        assert loaded.spec == report.spec
        assert loaded.record == report.record
        assert loaded.spec.fault_model == "burst:p_cluster=0.7"
        assert loaded.app == AppInfo(name="fft", metric=report.app.metric)
        assert loaded.quality_db == report.quality_db
        assert loaded.data_loss_ratio == report.data_loss_ratio

    def test_raw_result_is_memory_only(self):
        report = api.run("fft", "commguard", mtbe="50k", options=FAST)
        loaded = RunReport.from_json(report.to_json())
        assert loaded.result is None
        assert loaded.events is None

    def test_deserialized_app_cannot_compute_baselines(self):
        report = api.run("fft", "commguard", mtbe="50k", options=FAST)
        loaded = RunReport.from_json(report.to_json())
        with pytest.raises(ValueError, match="resolve_app"):
            loaded.baseline_quality_db()


class TestSweepReportRoundTrip:
    @pytest.fixture(scope="class")
    def report(self) -> SweepReport:
        return sweep(
            "fft",
            ["ppu_only", "commguard"],
            mtbes=["50k", "100k"],
            seeds=2,
            fault_model="burst",
            options=FAST,
        )

    def test_points_and_stats_lossless(self, report):
        loaded = SweepReport.from_json(report.to_json())
        assert [p.spec for p in loaded.points] == [p.spec for p in report.points]
        assert loaded.records == report.records
        assert loaded.stats == report.stats
        assert loaded.options == report.options

    def test_aggregations_identical(self, report):
        loaded = SweepReport.from_json(report.to_json())
        for level in report.protections:
            assert loaded.quality_stats(protection=level) == report.quality_stats(
                protection=level
            )
            assert loaded.loss_stats(protection=level) == report.loss_stats(
                protection=level
            )
        assert loaded.mtbes == report.mtbes
        assert loaded.protections == report.protections

    def test_failures_round_trip(self, monkeypatch):
        from repro.experiments import options as builder
        from tests.experiments import _fault_hooks as hooks

        monkeypatch.setattr(
            builder,
            "ParallelRunner",
            functools.partial(
                builder.ParallelRunner, fault_hook=hooks.always_fail
            ),
        )
        report = sweep(
            "fft", mtbes="50k", seeds=2,
            options=EngineOptions(scale=SCALE, jobs=1, cache=False,
                                  keep_going=True),
        )
        assert report.failures  # the hook must actually bite
        loaded = SweepReport.from_json(report.to_json())
        assert loaded.failures == report.failures
        assert loaded.stats.failures == report.stats.failures
        failed = [p for p in loaded.points if not p.ok]
        (point,) = failed
        assert point.record is None
        assert point.failure.failure == "exception"
        assert len(loaded.records) == len(loaded) - 1


class TestSchemaGuards:
    def test_unknown_version_rejected(self):
        report = api.run("fft", "commguard", mtbe="50k", options=FAST)
        data = report.to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match=r"schema_version 99.*version 1"):
            RunReport.from_dict(data)

    def test_missing_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version None"):
            SweepReport.from_dict({"kind": "sweep_report"})

    def test_kind_mismatch_rejected(self):
        report = api.run("fft", "commguard", mtbe="50k", options=FAST)
        with pytest.raises(ValueError, match="wrong report kind 'run_report'"):
            SweepReport.from_dict(report.to_dict())

    def test_documents_declare_version_and_kind(self):
        report = api.run("fft", "commguard", mtbe="50k", options=FAST)
        data = json.loads(report.to_json())
        assert data["schema_version"] == api.SCHEMA_VERSION
        assert data["kind"] == "run_report"


def _records(spec_values):
    protection, mtbe, seed, quality, loss, fault_model = spec_values
    spec = RunSpec(
        app="fft", protection=protection, mtbe=mtbe, seed=seed,
        fault_model=fault_model,
    )
    record = RunRecord(
        app="fft", protection=protection, mtbe=mtbe, seed=seed,
        frame_scale=1, quality_db=quality, data_loss_ratio=loss,
        pad_events=3, discard_events=1, padded_items=7, discarded_items=2,
        errors_injected=11, timeouts=0, committed_instructions=123456,
        execution_time=4242, header_load_ratio=0.01, header_store_ratio=0.02,
        subop_ratios={"pushes": 0.5, "pops": 0.5}, hung=False,
    )
    return spec, record


class TestRoundTripProperty:
    """Synthetic reports over arbitrary grid values survive the JSON trip
    bit for bit — no simulation needed, so the space can be sampled wide."""

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.sampled_from(list(ProtectionLevel)),
                st.one_of(st.none(), st.floats(1e3, 1e7, allow_nan=False)),
                st.integers(0, 1000),
                st.floats(-200.0, 200.0, allow_nan=False),
                st.floats(0.0, 1.0, allow_nan=False),
                st.sampled_from(["bit_flip", "burst", "sticky:dwell=50000"]),
            ),
            min_size=1,
            max_size=6,
        ),
        with_failure=st.booleans(),
    )
    def test_synthetic_sweep_report(self, values, with_failure):
        points = []
        failures = []
        for index, spec_values in enumerate(values):
            spec, record = _records(spec_values)
            if with_failure and index == 0:
                failure = FailureRecord(
                    index=index, spec=spec, failure="timeout",
                    message="exceeded 30s", attempts=3,
                )
                failures.append(failure)
                points.append(api.SweepPoint(spec=spec, record=None,
                                             failure=failure))
            else:
                points.append(api.SweepPoint(spec=spec, record=record))
        report = SweepReport(
            app=AppInfo(name="fft", metric="snr"),
            points=points,
            options=EngineOptions(scale=0.25, jobs=2, keep_going=True),
            stats=SweepStats(total=len(points), executed=len(points),
                             failed=len(failures), failures=failures),
        )
        loaded = SweepReport.from_json(report.to_json())
        assert loaded == report


class TestCliReportGolden:
    def test_report_reproduces_sweep_summary(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        argv = [
            "sweep", "fft", "--mtbe", "50k", "100k", "--seeds", "2",
            "--scale", str(SCALE), "--no-cache", "--jobs", "1",
            "--output", str(out_file),
        ]
        assert main(argv) == 0
        sweep_out = capsys.readouterr().out
        assert main(["report", str(out_file)]) == 0
        report_out = capsys.readouterr().out
        expected = "".join(
            line for line in sweep_out.splitlines(keepends=True)
            if not line.startswith("report written to")
        )
        assert report_out == expected

    def test_each_block_counts_its_own_seeds(self, tmp_path, capsys):
        """The error-free block holds one point, however many seeds the
        error-prone blocks sweep."""
        report = sweep(
            "fft", ["error-free", "commguard"], mtbes="50k", seeds=3,
            options=FAST,
        )
        path = tmp_path / "sweep.json"
        path.write_text(report.to_json())
        assert main(["report", str(path)]) == 0
        headers = [
            line for line in capsys.readouterr().out.splitlines()
            if " seeds/point" in line
        ]
        assert [line.split("(")[1].split(",")[0] for line in headers] == [
            "1 seeds/point", "3 seeds/point",
        ]

    def test_report_rejects_run_documents(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        report = api.run("fft", "commguard", mtbe="50k", options=FAST)
        path.write_text(report.to_json())
        assert main(["report", str(path)]) == 1
        assert "wrong report kind" in capsys.readouterr().err

    def test_missing_file_is_one_actionable_line(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 1
        err = capsys.readouterr().err
        assert "cannot read report" in err


class TestErrorMessageGolden:
    """Parse failures name the offending value and enumerate the valid
    choices/formats — the message alone must be enough to fix the call."""

    def test_mtbe_unparsable_names_value_and_formats(self):
        with pytest.raises(ValueError) as excinfo:
            api.parse_mtbe("fast")
        message = str(excinfo.value)
        assert "'fast'" in message
        assert "512k" in message and "1M" in message

    def test_mtbe_nonpositive_names_value(self):
        with pytest.raises(ValueError) as excinfo:
            api.parse_mtbe("-5k")
        message = str(excinfo.value)
        assert "'-5k'" in message
        assert "positive" in message

    def test_protection_names_value_and_choices(self):
        with pytest.raises(ValueError) as excinfo:
            ProtectionLevel.parse("armored")
        message = str(excinfo.value)
        assert "'armored'" in message
        for choice in ProtectionLevel.choices():
            assert choice in message

    def test_fault_model_malformed_param_shows_format(self):
        from repro.machine.faults import FaultModelSpec

        with pytest.raises(ValueError) as excinfo:
            FaultModelSpec.parse("burst:p_cluster")
        message = str(excinfo.value)
        assert "'p_cluster'" in message
        assert "'burst:p_cluster'" in message
        assert "name:param=val" in message

    def test_fault_model_bad_value_shows_example(self):
        from repro.machine.faults import FaultModelSpec

        with pytest.raises(ValueError) as excinfo:
            FaultModelSpec.parse("sticky:dwell=soon")
        message = str(excinfo.value)
        assert "'soon'" in message
        assert "'dwell'" in message
        assert "expected a number" in message

    def test_unknown_app_names_value_and_choices(self):
        with pytest.raises(ValueError) as excinfo:
            api.resolve_app("quake")
        message = str(excinfo.value)
        assert "'quake'" in message
        assert "fft" in message and "jpeg" in message

    def test_unknown_exec_mode_names_value_and_choices(self):
        from repro.machine.thread import NodeThread

        with pytest.raises(ValueError) as excinfo:
            NodeThread(node=None, comm=None, n_frames=1, firings_per_frame=1,
                       injector=None, ppu=None, exec_mode="turbo")
        message = str(excinfo.value)
        assert "'turbo'" in message
        assert "'fast', 'precise'" in message
