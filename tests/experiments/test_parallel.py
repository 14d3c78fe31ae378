"""Tests for the parallel sweep engine: specs, result store, determinism,
stats."""

import dataclasses
import json
import sqlite3

import pytest

from repro.experiments.cache import (
    CACHE_VERSION,
    record_from_dict,
    record_to_dict,
    spec_key,
)
from repro.experiments.parallel import (
    ParallelRunner,
    RunSpec,
    SweepStats,
    resolve_jobs,
)
from repro.experiments.runner import SimulationRunner
from repro.experiments.store import RunStore
from repro.machine.protection import ProtectionLevel

SCALE = 0.05


def specs_grid(n_seeds=2, mtbes=(100_000, 1_000_000)):
    return [
        RunSpec(app="fft", mtbe=mtbe, seed=seed)
        for mtbe in mtbes
        for seed in range(n_seeds)
    ]


class TestRunSpec:
    def test_content_key_is_stable(self):
        spec = RunSpec(app="fft", mtbe=100_000, seed=1)
        assert spec.content_key(0.5) == spec.content_key(0.5)

    def test_content_key_changes_with_every_field(self):
        base = RunSpec(app="fft", mtbe=100_000, seed=1)
        variants = [
            dataclasses.replace(base, app="jpeg"),
            dataclasses.replace(base, protection=ProtectionLevel.PPU_ONLY),
            dataclasses.replace(base, mtbe=200_000),
            dataclasses.replace(base, seed=2),
            dataclasses.replace(base, frame_scale=2),
            dataclasses.replace(base, workset_units=8),
            dataclasses.replace(base, p_masked=0.5),
        ]
        keys = {base.content_key(0.5)} | {v.content_key(0.5) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_content_key_changes_with_scale(self):
        spec = RunSpec(app="fft", mtbe=100_000)
        assert spec.content_key(0.5) != spec.content_key(1.0)

    def test_default_error_model_is_none(self):
        assert RunSpec(app="fft", mtbe=100_000).error_model() is None

    def test_error_model_overrides_merge_with_defaults(self):
        model = RunSpec(app="fft", mtbe=100_000, p_masked=0.0).error_model()
        assert model.p_masked == 0.0
        assert model.p_data + model.p_control + model.p_address == pytest.approx(1.0)

    def test_commguard_config_carries_knobs(self):
        config = RunSpec(app="fft", frame_scale=4, workset_units=8).commguard_config()
        assert config.frame_scale == 4
        assert config.workset_units == 8


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(5) == 5

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestDeterminism:
    def test_serial_matches_base_runner(self):
        """The serial engine returns exactly what its executor computes
        spec by spec."""
        specs = specs_grid(n_seeds=1)
        base = SimulationRunner(scale=SCALE)
        engine = ParallelRunner(scale=SCALE, jobs=1)
        assert engine.run_specs(specs) == [base.execute_spec(s) for s in specs]

    def test_parallel_bit_identical_to_serial(self):
        """The acceptance bar: jobs=4 reproduces jobs=1 exactly."""
        specs = specs_grid(n_seeds=2)
        serial = ParallelRunner(scale=SCALE, jobs=1).run_specs(specs)
        parallel = ParallelRunner(scale=SCALE, jobs=4).run_specs(specs)
        assert serial == parallel

    def test_results_keep_spec_order(self):
        specs = specs_grid(n_seeds=3)
        records = ParallelRunner(scale=SCALE, jobs=4).run_specs(specs)
        assert [(r.mtbe, r.seed) for r in records] == [
            (s.mtbe, s.seed) for s in specs
        ]

    def test_quality_stats_matches_serial_runner(self):
        """A sweep's quality stats are the same at any worker count."""
        from repro.api import EngineOptions, sweep

        serial, engine = (
            sweep(
                "fft", mtbes=100_000, seeds=[0, 1],
                options=EngineOptions(scale=SCALE, jobs=jobs, cache=False),
            ).quality_stats()
            for jobs in (1, 2)
        )
        assert serial == engine


class TestCache:
    """The engine's result cache is the :class:`RunStore`."""

    def test_record_round_trip(self, tmp_path):
        record = SimulationRunner(scale=SCALE).execute_spec(
            RunSpec(app="fft", mtbe=100_000)
        )
        assert record_from_dict(record_to_dict(record)) == record

    def test_second_sweep_hits_cache(self, tmp_path):
        specs = specs_grid()
        first = ParallelRunner(scale=SCALE, jobs=1, store=tmp_path / "c.sqlite")
        records = first.run_specs(specs)
        assert first.last_stats.executed == len(specs)
        assert first.last_stats.cache_hits == 0

        second = ParallelRunner(scale=SCALE, jobs=1, store=tmp_path / "c.sqlite")
        cached = second.run_specs(specs)
        assert second.last_stats.executed == 0
        assert second.last_stats.cache_hits == len(specs)
        assert cached == records

    def test_partial_hits_resume_interrupted_sweeps(self, tmp_path):
        store = tmp_path / "c.sqlite"
        head = specs_grid(n_seeds=1)
        ParallelRunner(scale=SCALE, jobs=1, store=store).run_specs(head)
        full = specs_grid(n_seeds=2)
        runner = ParallelRunner(scale=SCALE, jobs=2, store=store)
        runner.run_specs(full)
        assert runner.last_stats.cache_hits == len(head)
        assert runner.last_stats.executed == len(full) - len(head)

    def test_spec_change_invalidates(self, tmp_path):
        store = tmp_path / "c.sqlite"
        spec = RunSpec(app="fft", mtbe=100_000, seed=0)
        ParallelRunner(scale=SCALE, jobs=1, store=store).run_specs([spec])
        runner = ParallelRunner(scale=SCALE, jobs=1, store=store)
        runner.run_specs([dataclasses.replace(spec, seed=1)])
        assert runner.last_stats.cache_hits == 0

    def test_scale_change_invalidates(self, tmp_path):
        store = tmp_path / "c.sqlite"
        spec = RunSpec(app="fft", mtbe=100_000, seed=0)
        ParallelRunner(scale=SCALE, jobs=1, store=store).run_specs([spec])
        other = ParallelRunner(scale=0.1, jobs=1, store=store)
        other.run_specs([spec])
        assert other.last_stats.cache_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        path = tmp_path / "c.sqlite"
        spec = RunSpec(app="fft", mtbe=100_000, seed=0)
        runner = ParallelRunner(scale=SCALE, jobs=1, store=path)
        records = runner.run_specs([spec])
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE runs SET record='{not json'")
        conn.close()
        again = ParallelRunner(scale=SCALE, jobs=1, store=path)
        assert again.run_specs([spec]) == records
        assert again.last_stats.cache_hits == 0
        assert again.last_stats.executed == 1
        # The re-executed record replaced the corrupt row.
        assert RunStore(path).load(spec.content_key(SCALE)) == records[0]

    def test_version_tag_in_key(self):
        spec = RunSpec(app="fft", mtbe=100_000)
        key = spec_key(spec, SCALE)
        assert isinstance(CACHE_VERSION, int)
        assert len(key) == 64  # sha256 hex

    def test_env_var_selects_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.sqlite"))
        assert RunStore().path == tmp_path / "env.sqlite"
        assert ParallelRunner(store=True).store.path == tmp_path / "env.sqlite"

    def test_coerce_forms(self, tmp_path):
        assert ParallelRunner().store is None
        assert ParallelRunner(store=False).store is None
        assert ParallelRunner(store=True).store is not None
        store = RunStore(tmp_path / "s.sqlite")
        assert ParallelRunner(store=store).store is store
        path = tmp_path / "x.sqlite"
        assert ParallelRunner(store=path).store.path == path

    def test_stored_payload_is_inspectable_json(self, tmp_path):
        path = tmp_path / "c.sqlite"
        spec = RunSpec(app="fft", mtbe=100_000, seed=0)
        ParallelRunner(scale=SCALE, jobs=1, store=path).run_specs([spec])
        conn = sqlite3.connect(path)
        spec_doc, scale, record_doc = conn.execute(
            "SELECT spec, scale, record FROM runs WHERE key=?",
            (spec.content_key(SCALE),),
        ).fetchone()
        conn.close()
        assert json.loads(spec_doc)["app"] == "fft"
        assert float(scale) == SCALE
        assert json.loads(record_doc)["protection"] == "commguard"


class TestStats:
    def test_stats_fields(self):
        specs = specs_grid(n_seeds=1)
        runner = ParallelRunner(scale=SCALE, jobs=1)
        runner.run_specs(specs)
        stats = runner.last_stats
        assert stats.total == len(specs)
        assert stats.completed == len(specs)
        assert stats.wall_seconds > 0
        assert stats.cpu_seconds > 0
        assert stats.jobs == 1
        assert "runs" in stats.summary()

    def test_progress_callback_fires_per_run(self):
        seen = []
        runner = ParallelRunner(scale=SCALE, jobs=1, progress=seen.append)
        runner.run_specs(specs_grid(n_seeds=1))
        assert len(seen) == 2
        assert all(isinstance(s, SweepStats) for s in seen)
        assert seen[-1].completed == 2
