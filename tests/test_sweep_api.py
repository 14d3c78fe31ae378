"""repro.api.sweep: grid construction, both engine paths, report views."""

import pytest

import repro
from repro import EngineOptions, ProtectionLevel, SweepReport, sweep
from repro.api import RunSpec, run
from repro.apps import build_app

SCALE = 0.05
FAST = EngineOptions(scale=SCALE, jobs=1, cache=False)


@pytest.fixture(scope="module")
def grid_report() -> SweepReport:
    return sweep(
        "fft",
        list(ProtectionLevel),
        mtbes=["50k", 100_000],
        seeds=2,
        options=FAST,
    )


class TestGridConstruction:
    def test_grid_order_is_protection_mtbe_seed(self, grid_report):
        keys = [
            (p.spec.protection, p.spec.mtbe, p.spec.seed) for p in grid_report
        ]
        expected = [(ProtectionLevel.ERROR_FREE, None, 0)]
        for level in (
            ProtectionLevel.PPU_ONLY,
            ProtectionLevel.PPU_RELIABLE_QUEUE,
            ProtectionLevel.COMMGUARD,
        ):
            for mtbe in (50_000.0, 100_000.0):
                for seed in (0, 1):
                    expected.append((level, mtbe, seed))
        assert keys == expected

    def test_error_free_collapses_to_one_point(self, grid_report):
        assert len(grid_report.select(protection="error-free")) == 1

    def test_axis_spellings(self):
        report = sweep("fft", "commguard", mtbes="50k", seeds=[7], options=FAST)
        (point,) = report.points
        assert point.spec.protection is ProtectionLevel.COMMGUARD
        assert point.spec.mtbe == 50_000.0
        assert point.spec.seed == 7

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one protection"):
            sweep("fft", [], mtbes="50k", options=FAST)
        with pytest.raises(ValueError, match="at least one seed"):
            sweep("fft", seeds=0, options=FAST)

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            sweep("quake", options=FAST)


class TestReportViews:
    def test_axes_views(self, grid_report):
        assert grid_report.protections == tuple(ProtectionLevel)
        assert grid_report.mtbes == (None, 50_000.0, 100_000.0)

    def test_select_by_each_axis(self, grid_report):
        assert len(grid_report.select(protection="commguard")) == 4
        assert len(grid_report.select(mtbe="50k")) == 6
        assert len(grid_report.select(seed=1)) == 6
        assert len(grid_report.select(protection="commguard", mtbe="50k", seed=1)) == 1

    def test_mean_quality_capped(self, grid_report):
        mean = grid_report.mean_quality_db(protection="error-free")
        assert mean == pytest.approx(96.0)  # inf capped at QUALITY_CAP_DB

    def test_mean_quality_no_match_raises(self, grid_report):
        with pytest.raises(ValueError, match="no sweep points match"):
            grid_report.mean_quality_db(mtbe="999k")

    def test_records_match_run(self, grid_report):
        point = grid_report.select(protection="commguard", mtbe="50k", seed=0)[0]
        report = run("fft", "commguard", mtbe="50k", seed=0,
                     options=EngineOptions(scale=SCALE))
        assert point.record == report.record

    def test_engine_stats_attached(self, grid_report):
        assert grid_report.stats is not None
        assert grid_report.stats.total == len(grid_report)


class TestInProcessPath:
    def test_collect_results_attaches_raw_results(self):
        report = sweep(
            "fft", mtbes="50k", options=FAST, collect_results=True
        )
        (point,) = report.points
        assert point.result is not None
        assert point.result.committed_instructions > 0
        assert report.stats is None  # no engine fan-out: no sweep stats

    def test_parallel_path_omits_results(self, grid_report):
        assert all(point.result is None for point in grid_report)

    def test_prebuilt_app_runs_in_process(self):
        app = build_app("fft", scale=SCALE)
        report = sweep(app, mtbes="50k", options=EngineOptions(scale=SCALE))
        (point,) = report.points
        assert point.spec.app == "fft"
        assert point.record.quality_db == pytest.approx(
            run(app, mtbe="50k", options=EngineOptions(scale=SCALE)).record.quality_db
        )

    def test_trace_dir_ships_one_trace_per_run(self, tmp_path):
        report = sweep(
            "fft",
            mtbes="50k",
            options=EngineOptions(scale=SCALE, trace_dir=str(tmp_path)),
            collect_results=True,
        )
        traces = list(tmp_path.glob("*.jsonl"))
        assert len(traces) == len(report) == 1
        assert traces[0].stat().st_size > 0
        (point,) = report.points
        assert traces[0].stem == RunSpec(
            app="fft", mtbe=50_000.0, seed=0
        ).content_key(SCALE)


class TestPublicSurface:
    def test_exported_from_repro(self):
        assert repro.sweep is sweep
        for name in ("sweep", "SweepReport", "SweepPoint", "EngineOptions"):
            assert name in repro.__all__


class TestFaultTolerantSweeps:
    def test_engine_options_carry_fault_tolerance_knobs(self):
        options = EngineOptions(retries=2, run_timeout=30.0, keep_going=True)
        assert options.retries == 2
        assert options.run_timeout == 30.0
        assert options.keep_going

    def test_parallel_keep_going_marks_failed_points(self, monkeypatch):
        import functools

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
            "fft",
            mtbes="50k",
            seeds=2,
            options=EngineOptions(
                scale=SCALE, jobs=1, cache=False, keep_going=True
            ),
        )
        failed = [point for point in report if not point.ok]
        (point,) = failed
        assert point.record is None
        assert point.failure.failure == "exception"
        assert point.spec.seed == hooks.VICTIM_SEED
        assert report.failures == [point.failure]
        # Failed points drop out of every aggregation view.
        assert len(report.records) == len(report) - 1
        assert point not in report.select(seed=hooks.VICTIM_SEED)
        with pytest.raises(ValueError, match="injected fault"):
            point.quality_db

    def test_parallel_strict_raises(self, monkeypatch):
        import functools

        from repro.experiments import options as builder
        from repro.experiments.parallel import SweepRunError
        from tests.experiments import _fault_hooks as hooks

        monkeypatch.setattr(
            builder,
            "ParallelRunner",
            functools.partial(
                builder.ParallelRunner, fault_hook=hooks.always_fail
            ),
        )
        with pytest.raises(SweepRunError, match="injected fault"):
            sweep("fft", mtbes="50k", seeds=2, options=FAST)

    def test_in_process_keep_going_marks_failed_points(self, monkeypatch):
        from repro.experiments import runner as runner_mod

        original = runner_mod.SimulationRunner.run_spec

        def flaky(self, spec, **kwargs):
            if spec.seed == 1:
                raise RuntimeError("injected fault")
            return original(self, spec, **kwargs)

        monkeypatch.setattr(runner_mod.SimulationRunner, "run_spec", flaky)
        app = build_app("fft", scale=SCALE)
        report = sweep(
            app,
            mtbes="50k",
            seeds=2,
            options=EngineOptions(scale=SCALE, keep_going=True),
        )
        (failure,) = report.failures
        assert failure.failure == "exception"
        assert "injected fault" in failure.message
        assert len(report.records) == 1

    def test_failure_exports_in_public_surface(self):
        for name in ("FailureRecord", "RunTimeoutError", "SweepRunError"):
            assert name in repro.__all__
            assert hasattr(repro, name)
