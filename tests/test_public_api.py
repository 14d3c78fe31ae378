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


class TestExampleScripts:
    """The fastest example scripts must run end to end."""

    @pytest.mark.parametrize(
        "script", ["custom_app_guarded.py", "tagged_mapreduce.py"]
    )
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
            "tagged_mapreduce.py",
            "alignment_trace.py",
        } <= names
