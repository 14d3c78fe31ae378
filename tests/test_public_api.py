"""Public-API surface and example-script smoke tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"
SRC = Path(__file__).parent.parent / "src"


class TestPublicApi:
    def test_root_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_streamit_exports(self):
        import repro.streamit as streamit

        for name in streamit.__all__:
            assert getattr(streamit, name) is not None

    def test_apps_exports(self):
        import repro.apps as apps

        for name in apps.__all__:
            assert getattr(apps, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2



class TestPrebuiltApps:
    """``run`` and ``sweep`` simulate the app they are handed, even after
    the registry app of the same name ran at the same scale."""

    REGISTRY_FFT = 297_856  # committed instructions, registry fft at 0.05
    CUSTOM_FFT = 1_191_424  # build_fft_app(n_frames=64)

    def test_run(self):
        from repro.api import EngineOptions, run
        from repro.apps.fft_app import build_fft_app

        options = EngineOptions(scale=0.05)
        registry = run("fft", "error-free", options=options)
        assert registry.record.committed_instructions == self.REGISTRY_FFT
        custom = run(build_fft_app(n_frames=64), "error-free", options=options)
        assert custom.record.committed_instructions == self.CUSTOM_FFT
        again = run("fft", "error-free", options=options)
        assert again.record.committed_instructions == self.REGISTRY_FFT

    def test_sweep(self):
        from repro.api import EngineOptions, run, sweep
        from repro.apps.fft_app import build_fft_app

        options = EngineOptions(scale=0.05)
        run("fft", "error-free", options=options)
        report = sweep(build_fft_app(n_frames=64), "error-free", options=options)
        assert [point.record.committed_instructions for point in report.points] == [
            self.CUSTOM_FFT
        ]

    @pytest.mark.parametrize("custom_first", [True, False])
    def test_run_bypasses_the_store(self, tmp_path, custom_first):
        from repro.api import EngineOptions, run
        from repro.apps.fft_app import build_fft_app
        from repro.experiments.store import RunStore

        store = RunStore(tmp_path / "s.sqlite")
        options = EngineOptions(scale=0.05, store=store)
        apps = [("registry", self.REGISTRY_FFT), ("custom", self.CUSTOM_FFT)]
        if custom_first:
            apps.reverse()
        for name, committed in apps:
            app = build_fft_app(n_frames=64) if name == "custom" else "fft"
            report = run(app, "error-free", options=options)
            assert report.record.committed_instructions == committed
            assert report.result is not None
        assert len(store) == 1


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="lists descriptors through /proc"
)
class TestEntryPointsCloseTheirStores:
    """``sweep``, ``run``, ``SweepReport.from_store`` and the paper
    pipeline (``run_paper``, so ``reproduce``) close a store they open
    from a path before returning; a ``RunStore`` handed in stays open.

    The cyclic garbage collector is off throughout: an unclosed
    connection sits in a reference cycle, so only a collection would
    close it."""

    @pytest.fixture(autouse=True)
    def _no_cyclic_gc(self):
        import gc

        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def open_files(path: Path) -> list[str]:
        """The store's files among this process's open descriptors."""
        names = {os.path.realpath(f"{path}{suffix}") for suffix in ("", "-wal", "-shm")}
        targets = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                targets.append(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:
                continue
        return [target for target in targets if target in names]

    def assert_closed(self, path: Path, entry: str) -> None:
        assert self.open_files(path) == [], entry
        assert not Path(f"{path}-wal").exists(), entry

    def test_a_store_opened_from_a_path_is_closed(self, tmp_path):
        from repro.api import EngineOptions, SweepReport, run, sweep

        path = tmp_path / "store.sqlite"
        options = EngineOptions(scale=0.05, jobs=1, store=str(path))
        sweep("fft", mtbes="1M", seeds=2, options=options, campaign="c")
        self.assert_closed(path, "sweep")
        report = SweepReport.from_store(str(path), "c")
        assert len(report.points) == 2
        self.assert_closed(path, "from_store")
        run("fft", mtbe="1M", seed=5, options=options)
        self.assert_closed(path, "run")
        with pytest.raises(ValueError, match="different grid"):
            sweep("fft", mtbes="1M", seeds=3, options=options, campaign="c")
        self.assert_closed(path, "sweep of another grid")

    def test_the_default_store_is_closed(self, tmp_path):
        from repro.api import EngineOptions, sweep

        sweep("fft", mtbes="1M", options=EngineOptions(scale=0.05, jobs=1))
        self.assert_closed(tmp_path / "default-store.sqlite", "sweep")

    def test_a_store_handed_in_stays_open(self, tmp_path):
        from repro.api import EngineOptions, SweepReport, run, sweep
        from repro.experiments.store import RunStore

        store = RunStore(tmp_path / "store.sqlite")
        options = EngineOptions(scale=0.05, jobs=1, store=store)
        sweep("fft", mtbes="1M", seeds=2, options=options, campaign="c")
        assert len(store) == 2
        assert len(SweepReport.from_store(store, "c").points) == 2
        assert len(store) == 2
        run("fft", mtbe="1M", seed=5, options=options)
        assert len(store) == 3
        store.close()

    def test_the_paper_pipeline_closes_its_store(self, tmp_path):
        from dataclasses import replace

        from repro.api import EngineOptions
        from repro.experiments.paper import run_paper
        from repro.experiments.store import RunStore

        path = tmp_path / "store.sqlite"
        options = EngineOptions(jobs=1, store=str(path))
        paper = run_paper("smoke", figure="fig12", options=options)
        self.assert_closed(path, "run_paper")
        # The returned store reconnects on its next use.
        runs = paper.report.total_specs
        assert len(paper.store) == runs
        paper.store.close()
        store = RunStore(path)
        run_paper("smoke", figure="fig12", options=replace(options, store=store))
        assert self.open_files(path), "a store handed in stays open"
        assert len(store) == runs
        store.close()


class TestRemovedIn2:
    """The spellings deprecated in 1.x are gone, not silently accepted."""

    def test_simulation_runner_shims(self):
        from repro.experiments.runner import SimulationRunner

        runner = SimulationRunner(scale=0.05)
        with pytest.raises(AttributeError):
            runner.execute("fft", mtbe=100_000)
        with pytest.raises(AttributeError):
            runner.record("fft", mtbe=100_000)

    def test_run_engine_kwargs(self):
        from repro import api

        with pytest.raises(TypeError):
            api.run("fft", mtbe=100_000, scale=0.05)
        with pytest.raises(TypeError):
            api.run("fft", mtbe=100_000, trace=True)

    def test_sweep_engine_kwargs(self):
        from repro import api

        for name, value in (("jobs", 1), ("no_cache", True), ("store", None)):
            with pytest.raises(TypeError):
                api.sweep("fft", mtbes=100_000, **{name: value})

    def test_figure_harnesses(self):
        """Figures are graded targets now: no module runs a harness."""
        import importlib

        import repro.experiments as experiments
        from repro.experiments import registry
        from repro.experiments.registry import figure_specs

        for spec in figure_specs():
            module = importlib.import_module(spec.module)
            assert callable(module.paper_targets), spec.module
            assert not hasattr(module, "main"), spec.module
            assert not hasattr(module, "run"), spec.module
        assert not hasattr(registry.FigureSpec, "run")
        assert "FigureArtifact" not in experiments.__all__

    def test_result_cache_class(self):
        import repro.experiments as experiments
        from repro.experiments import cache

        assert not hasattr(cache, "ResultCache")
        assert "ResultCache" not in experiments.__all__


class TestRemovedIn3:
    """The 1.x cache migration and the test-only engine helpers are gone."""

    def test_store_import(self):
        from repro.cli import build_parser
        from repro.experiments import store

        assert not hasattr(store.RunStore, "import_cache")
        assert not hasattr(store, "LEGACY_CACHE_DIR")
        assert not hasattr(store, "ENV_LEGACY_CACHE_DIR")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "import"])

    def test_engine_helpers(self):
        from repro.experiments import runner
        from repro.experiments.parallel import ParallelRunner
        from repro.experiments.runner import SimulationRunner

        assert not hasattr(SimulationRunner, "quality_stats")
        assert not hasattr(SimulationRunner, "run_specs")
        assert not hasattr(runner, "mean_stdev")
        assert not hasattr(ParallelRunner, "quality_stats")
        assert not hasattr(ParallelRunner, "spec")

    def test_engine_is_not_an_executor(self):
        from repro.experiments.parallel import ParallelRunner
        from repro.experiments.runner import SimulationRunner

        engine = ParallelRunner(scale=0.05, jobs=1)
        assert not isinstance(engine, SimulationRunner)
        assert isinstance(engine.executor, SimulationRunner)
        assert engine.executor.scale == engine.scale


class TestRemovedIn4:
    """The values nothing read are gone; ``RunSpec`` holds only what a run
    computes.  ``SystemConfig.exec_mode`` stays: it selects the precise
    oracle the golden and equivalence tests run."""

    @staticmethod
    def field_names(cls) -> set[str]:
        import dataclasses

        return {f.name for f in dataclasses.fields(cls)}

    def test_queue_manager_timeouts(self):
        from repro.core.config import CommGuardConfig
        from repro.experiments.parallel import RunSpec

        for cls in (RunSpec, CommGuardConfig):
            assert not {"push_timeout", "pop_timeout"} & self.field_names(cls)
        assert not hasattr(CommGuardConfig, "scaled")

    def test_exec_mode_outside_the_machine(self):
        import inspect

        from repro import api
        from repro.cli import build_parser
        from repro.experiments.options import EngineOptions
        from repro.experiments.parallel import RunSpec
        from repro.machine.system import SystemConfig

        assert "exec_mode" not in self.field_names(RunSpec)
        assert "exec_mode" not in self.field_names(EngineOptions)
        assert "exec_mode" not in inspect.signature(api.sweep_grid).parameters
        assert "exec_mode" in self.field_names(SystemConfig)
        parser = build_parser()
        for argv in (["run", "fft"], ["sweep", "fft"], ["profile", "run", "fft"]):
            with pytest.raises(SystemExit):
                parser.parse_args([*argv, "--exec-mode", "precise"])

    def test_spec_trace(self):
        from repro.experiments.parallel import ParallelRunner, RunSpec

        assert "trace" not in self.field_names(RunSpec)
        assert not hasattr(ParallelRunner, "_trace_satisfied")

    def test_duplicate_fault_model_and_dead_code(self):
        from repro.machine.core import SimCore
        from repro.machine.system import SystemConfig

        assert "fault_model" not in self.field_names(SystemConfig)
        assert not hasattr(SimCore, "all_done")

    def test_spec_is_what_a_run_computes(self):
        from repro.experiments.parallel import RunSpec

        assert self.field_names(RunSpec) == {
            "app", "protection", "mtbe", "seed", "frame_scale",
            "workset_units", "pad_word", "p_masked", "p_data", "p_control",
            "p_address", "fault_model",
        }


class TestRemovedIn5:
    """Retry backoff is gone: every run is seeded by its spec alone, so a
    retry is re-dispatched at once."""

    def test_retry_backoff(self):
        import dataclasses

        from repro.experiments.options import EngineOptions
        from repro.experiments.parallel import ParallelRunner
        from repro.observability.events import RunRetried

        with pytest.raises(TypeError):
            EngineOptions(retry_backoff=0.5)
        with pytest.raises(TypeError):
            ParallelRunner(retry_backoff=0.5)
        fields = {f.name for f in dataclasses.fields(RunRetried)}
        assert "backoff_seconds" not in fields

    def test_engine_metrics_parameter(self):
        from repro.experiments.parallel import ParallelRunner
        from repro.observability.metrics import MetricsRegistry

        with pytest.raises(TypeError):
            ParallelRunner(metrics=MetricsRegistry())
        assert isinstance(ParallelRunner().metrics, MetricsRegistry)


class TestRemovedIn6:
    """The enrichments no graded target reads are gone: the tagged-step
    bridge, 4:2:0 jpeg, stereo mp3 and the 21-node beamformer."""

    def test_tagged_extensions(self):
        import importlib.util

        assert importlib.util.find_spec("repro.extensions") is None

    def test_app_variants(self):
        import numpy as np

        from repro.apps import (
            build_audiobeamformer_app,
            build_jpeg_app,
            build_mp3_app,
        )
        from repro.apps.jpeg import encode_image

        with pytest.raises(TypeError):
            build_jpeg_app(subsampling="420")
        with pytest.raises(TypeError):
            encode_image(np.zeros((16, 16, 3), dtype=np.uint8), subsampling="420")
        with pytest.raises(TypeError):
            build_mp3_app(stereo=True)
        with pytest.raises(TypeError):
            build_audiobeamformer_app(variant="full")


class TestExampleScripts:
    """The fastest example scripts must run end to end."""

    @pytest.mark.parametrize("script", ["custom_app_guarded.py"])
    def test_example_runs(self, script, tmp_path):
        pythonpath = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / script)],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()

    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "jpeg_error_sweep.py",
            "mp3_frame_sizes.py",
            "protection_comparison.py",
            "custom_app_guarded.py",
            "alignment_trace.py",
        } <= names
