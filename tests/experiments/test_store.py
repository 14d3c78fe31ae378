"""RunStore: roundtrips, maintenance, campaigns, multi-writer safety."""

import dataclasses
import hashlib
import json
import sqlite3
import threading

import pytest

from repro.experiments.cache import (
    CACHE_VERSION,
    record_to_dict,
    spec_key,
    spec_to_dict,
)
from repro.experiments.parallel import FailureRecord, ParallelRunner, RunSpec
from repro.experiments.runner import SimulationRunner
from repro.experiments.store import RunStore, derive_campaign_id
from repro.machine.protection import ProtectionLevel

SCALE = 0.05


@pytest.fixture(scope="module")
def runner():
    return SimulationRunner(scale=SCALE)


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store.sqlite")


def make_spec(seed: int = 0, mtbe: float = 100_000.0) -> RunSpec:
    return RunSpec(app="fft", mtbe=mtbe, seed=seed)


@pytest.fixture(scope="module")
def executed(runner):
    spec = make_spec()
    return spec, runner.execute_spec(spec)


class TestSerializers:
    def test_direct_serializers_match_asdict(self, runner, executed):
        # The serializers read fields one by one; documents, keys and
        # stored rows must stay what dataclasses.asdict made them.
        def asdict_doc(obj):
            data = dataclasses.asdict(obj)
            data["protection"] = obj.protection.value
            return data

        def asdict_key(spec, scale):
            payload = asdict_doc(spec)
            payload.update(push_timeout=100_000, pop_timeout=100_000)
            if payload["fault_model"] == "bit_flip":
                del payload["fault_model"]
            payload["scale"] = repr(float(scale))
            payload["version"] = CACHE_VERSION
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(canonical.encode()).hexdigest()

        specs = [
            make_spec(),
            RunSpec(app="jpeg", protection=ProtectionLevel.ERROR_FREE),
            RunSpec(app="mp3", protection=ProtectionLevel.PPU_ONLY, mtbe=5e4,
                    seed=3, frame_scale=4, workset_units=8, pad_word=7),
            RunSpec(app="fft", mtbe=64_000.0, p_masked=0.5, p_address=0.1),
            RunSpec(app="fft", mtbe=64_000.0, fault_model="burst:max_len=4"),
        ]
        for spec in specs:
            assert json.dumps(spec_to_dict(spec)) == json.dumps(asdict_doc(spec))
            for scale in (SCALE, 1.0):
                assert spec_key(spec, scale) == asdict_key(spec, scale)
        records = [executed[1], runner.execute_spec(specs[1])]
        for record in records:
            data = record_to_dict(record)
            assert json.dumps(data) == json.dumps(asdict_doc(record))
            assert data["subop_ratios"] is not record.subop_ratios


class TestStoreBasics:
    def test_roundtrip(self, store, executed):
        spec, record = executed
        key = spec.content_key(SCALE)
        assert store.load(key) is None
        assert key not in store
        store.store(key, spec, SCALE, record)
        assert store.load(key) == record
        assert key in store
        assert len(store) == 1
        assert store.keys() == frozenset({key})

    def test_load_miss_without_fallback(self, store):
        assert store.load("no-such-key") is None

    def test_provenance_is_stamped(self, store, executed):
        spec, record = executed
        key = spec.content_key(SCALE)
        store.set_context(jobs=3, campaign="c-test")
        store.store(key, spec, SCALE, record, provenance={"entry": "test"})
        row = store.query()[0]
        assert row.provenance["jobs"] == 3
        assert row.provenance["campaign"] == "c-test"
        assert row.provenance["entry"] == "test"
        assert "written_at" in row.provenance
        assert "worker" in row.provenance

    def test_coerce(self, store, tmp_path):
        assert RunStore.coerce(None) is None
        assert RunStore.coerce(False) is None
        assert RunStore.coerce(store) is store
        coerced = RunStore.coerce(str(tmp_path / "other.sqlite"))
        assert coerced.path == tmp_path / "other.sqlite"

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        RunStore(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value='99' WHERE key='schema_version'")
        conn.close()
        with pytest.raises(ValueError, match="schema version 99"):
            RunStore(path)


class TestLegacyFallback:
    """Store maintenance: export, query and stats."""

    def test_export_jsonl(self, tmp_path, store, executed):
        import io

        spec, record = executed
        store.store(spec.content_key(SCALE), spec, SCALE, record)
        buffer = io.StringIO()
        assert store.export(buffer) == 1
        line = json.loads(buffer.getvalue())
        assert line["key"] == spec.content_key(SCALE)
        assert line["spec"]["app"] == "fft"


class TestFailures:
    def test_failure_roundtrip_latest_wins(self, store):
        spec = make_spec(5)
        for attempt, message in enumerate(["first", "second"], start=1):
            store.record_failure(
                FailureRecord(
                    index=2, spec=spec, failure="timeout",
                    message=message, attempts=attempt,
                ),
                campaign="c-x",
                scale=SCALE,
            )
        failure = store.failure_for(spec.content_key(SCALE))
        assert failure.message == "second"
        assert failure.attempts == 2
        assert failure.spec == spec

    def test_gc_prunes_superseded_failures(self, store, executed):
        spec, record = executed
        key = spec.content_key(SCALE)
        store.record_failure(
            FailureRecord(
                index=0, spec=spec, failure="exception",
                message="transient", attempts=1,
            ),
            scale=SCALE,
        )
        store.store(key, spec, SCALE, record)  # the later success supersedes
        collected = store.gc()
        assert collected.superseded_failures == 1
        assert store.failure_for(key) is None

    def test_gc_sweeps_orphans_in_trace_dirs(self, store, tmp_path, executed):
        spec, record = executed
        store.store(spec.content_key(SCALE), spec, SCALE, record)
        traces = tmp_path / "traces"
        straggler = traces / "ab"
        straggler.mkdir(parents=True)
        (straggler / "deadbeef.jsonl.tmp").write_text("{}")
        (traces / f"{spec.content_key(SCALE)}.jsonl").write_text("{}\n")
        (traces / ("f" * 64 + ".jsonl")).write_text("{}\n")
        collected = store.gc(trace_dirs=[traces])
        assert collected.tmp_stragglers == 1
        assert collected.dangling_traces == 1  # the live key's trace stays
        assert (traces / f"{spec.content_key(SCALE)}.jsonl").exists()


class TestCampaigns:
    def test_begin_is_idempotent_and_derives_status(self, store, runner):
        specs = [make_spec(seed) for seed in range(4)]
        store.begin_campaign("c-1", specs, SCALE, app="fft")
        status = store.campaign("c-1")
        assert status.total == 4
        assert status.pending == (0, 1, 2, 3)
        store.store(
            specs[1].content_key(SCALE), specs[1], SCALE,
            runner.execute_spec(specs[1]),
        )
        store.begin_campaign("c-1", specs, SCALE)
        again = store.campaign("c-1")
        assert again.done == frozenset({1})
        assert again.pending == (0, 2, 3)
        assert "1/4 done" in again.summary()

    def test_begin_rejects_grid_mismatch(self, store):
        store.begin_campaign("c-1", [make_spec(0)], SCALE)
        with pytest.raises(ValueError, match="different grid"):
            store.begin_campaign("c-1", [make_spec(1)], SCALE)
        with pytest.raises(ValueError, match="different grid"):
            store.begin_campaign("c-1", [make_spec(0)], SCALE * 2)

    def test_concurrent_beginners_serialize(self, tmp_path):
        """Two processes' worth of beginners racing the same new campaign
        must both succeed: the check-and-insert is one immediate
        transaction, so the loser lands on the verification path instead
        of an IntegrityError."""
        path = tmp_path / "race.sqlite"
        specs = [make_spec(seed) for seed in range(3)]
        barrier = threading.Barrier(4)
        errors: list = []

        def begin():
            try:
                local = RunStore(path)
                barrier.wait()
                local.begin_campaign("c-race", specs, SCALE, app="fft")
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=begin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        status = RunStore(path).campaign("c-race")
        assert status.total == 3
        assert status.pending == (0, 1, 2)

    def test_concurrent_openers_of_a_fresh_store(self, tmp_path):
        """Openers racing to create one database all succeed: SQLite fails
        the loser of the switch to WAL at once ("database is locked")
        rather than waiting, and the store retries it."""
        specs = [make_spec(seed) for seed in range(3)]
        for round_ in range(40):
            path = tmp_path / f"fresh{round_}.sqlite"
            barrier = threading.Barrier(4)
            errors: list = []

            def open_and_begin():
                try:
                    barrier.wait(timeout=60)
                    local = RunStore(path)
                    local.begin_campaign("c-open", specs, SCALE)
                    local.close()
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)

            threads = [threading.Thread(target=open_and_begin) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert RunStore(path).campaign("c-open").total == 3

    def test_unknown_campaign_names_known_ids(self, store):
        store.begin_campaign("c-known", [make_spec(0)], SCALE)
        with pytest.raises(ValueError, match="c-known"):
            store.campaign("c-missing")

    def test_failed_positions_derived_from_failures(self, store):
        specs = [make_spec(seed) for seed in range(2)]
        store.begin_campaign("c-f", specs, SCALE)
        store.record_failure(
            FailureRecord(
                index=0, spec=specs[0], failure="crash",
                message="died", attempts=2,
            ),
            campaign="c-f",
            scale=SCALE,
        )
        status = store.campaign("c-f")
        assert status.failed == frozenset({0})
        assert status.pending == (1,)

    def test_derive_campaign_id_is_deterministic(self):
        grid = [make_spec(seed) for seed in range(3)]
        assert derive_campaign_id(grid, SCALE) == derive_campaign_id(grid, SCALE)
        assert derive_campaign_id(grid, SCALE) != derive_campaign_id(grid, 0.1)
        assert derive_campaign_id(grid, SCALE) != derive_campaign_id(
            grid[::-1], SCALE
        )
        assert derive_campaign_id(grid, SCALE).startswith("c-")


class TestQueryAndStats:
    def test_query_filters_and_limit(self, store, runner):
        for seed in range(3):
            spec = make_spec(seed)
            store.store(
                spec.content_key(SCALE), spec, SCALE, runner.execute_spec(spec)
            )
        assert len(store.query(app="fft")) == 3
        assert len(store.query(app="jpeg")) == 0
        assert len(store.query(seed=1)) == 1
        assert len(store.query(limit=2)) == 2
        seeds = [row.spec.seed for row in store.query()]
        assert seeds == sorted(seeds)

    def test_stats_counts(self, store, executed):
        spec, record = executed
        store.store(spec.content_key(SCALE), spec, SCALE, record)
        store.begin_campaign("c-s", [spec], SCALE)
        stats = store.stats()
        assert stats.runs == 1
        assert stats.campaigns == 1
        assert stats.by_app == {"fft": 1}
        assert stats.size_bytes > 0


class TestEngineIntegration:
    def test_runner_writes_and_rereads_store(self, tmp_path):
        specs = [make_spec(seed) for seed in range(3)]
        path = tmp_path / "store.sqlite"
        first = ParallelRunner(scale=SCALE, jobs=1, store=RunStore(path))
        records = first.run_specs(specs)
        assert first.last_stats.executed == 3
        second = ParallelRunner(scale=SCALE, jobs=1, store=RunStore(path))
        again = second.run_specs(specs)
        assert second.last_stats.cache_hits == 3
        assert again == records

    def test_wall_seconds_provenance_is_per_run(self, tmp_path):
        """Each row's wall_seconds is that run's own elapsed time, not
        the sweep's cumulative clock — so for a serial sweep the per-row
        times sum to at most the sweep total."""
        path = tmp_path / "store.sqlite"
        engine = ParallelRunner(scale=SCALE, jobs=1, store=RunStore(path))
        engine.run_specs([make_spec(seed) for seed in range(4)])
        walls = [row.provenance["wall_seconds"] for row in RunStore(path).query()]
        assert len(walls) == 4
        assert all(wall >= 0 for wall in walls)
        assert sum(walls) <= engine.last_stats.wall_seconds + 0.005

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_hit_stands_in_for_a_traced_run_only_with_its_trace(
        self, tmp_path, jobs
    ):
        """``trace_dir`` names each run's trace by its content key; a
        stored record replaces a run only when that trace exists."""
        specs = [make_spec(seed) for seed in range(3)]
        path, traces = tmp_path / "store.sqlite", tmp_path / "traces"

        def engine():
            return ParallelRunner(
                scale=SCALE, jobs=jobs, store=RunStore(path), trace_dir=traces
            )

        first = engine()
        records = first.run_specs(specs)
        names = sorted(p.name for p in traces.iterdir())
        assert names == sorted(f"{s.content_key(SCALE)}.jsonl" for s in specs)
        lost = [traces / f"{s.content_key(SCALE)}.jsonl" for s in specs[1:]]
        expected = [trace.read_bytes() for trace in lost]
        for trace in lost:
            trace.unlink()
        second = engine()
        assert second.run_specs(specs) == records
        assert second.last_stats.cache_hits == 1
        assert second.last_stats.executed == 2
        assert [trace.read_bytes() for trace in lost] == expected

    def test_run_error_model_override_is_keyed(self, tmp_path):
        """An ``error_model`` override is part of the spec: it gets its
        own store row, leaves the baseline row alone, reruns as a store
        hit, and an explicit MTBE that disagrees with it is an error."""
        from repro.api import EngineOptions, run
        from repro.machine.errors import ErrorModel

        store = RunStore(tmp_path / "store.sqlite")
        options = EngineOptions(scale=SCALE, store=store)
        baseline = run("fft", mtbe=100_000.0, seed=0, options=options)
        model = ErrorModel(mtbe=1_000.0)
        overridden = run("fft", seed=0, error_model=model, options=options)
        assert overridden.result is not None  # executed, not a store hit
        assert overridden.record.mtbe == 1_000.0
        assert overridden.spec.error_model() == model
        assert overridden.record.errors_injected > baseline.record.errors_injected
        assert len(store) == 2
        assert store.load(baseline.spec.content_key(SCALE)) == baseline.record
        again = run(
            "fft", mtbe="1k", seed=0, error_model=model, options=options
        )
        assert again.result is None  # a store hit
        assert again.record == overridden.record
        with pytest.raises(ValueError, match="conflicting MTBEs"):
            run("fft", mtbe=100_000.0, error_model=model, options=options)
        assert len(store) == 2


class TestCampaignRegistration:
    """Each batch entry point registers its campaign exactly once and
    never reloads the campaign status it just wrote."""

    SWEEP = ["sweep", "fft", "--mtbe", "100k", "--seeds", "2",
             "--scale", str(SCALE), "--jobs", "1"]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"begin": 0, "load": 0}
        begin, load = RunStore.begin_campaign, RunStore.campaign

        def counted_begin(self, *args, **kwargs):
            calls["begin"] += 1
            return begin(self, *args, **kwargs)

        def counted_load(self, *args, **kwargs):
            calls["load"] += 1
            return load(self, *args, **kwargs)

        monkeypatch.setattr(RunStore, "begin_campaign", counted_begin)
        monkeypatch.setattr(RunStore, "campaign", counted_load)
        return calls

    def test_api_sweep(self, tmp_path, calls):
        from repro.api import EngineOptions, sweep

        options = EngineOptions(scale=SCALE, jobs=1, store=tmp_path / "s.sqlite")
        for expected_hits in (0, 2):  # a fresh campaign, then its resume
            report = sweep("fft", mtbes=100_000, seeds=2, options=options)
            assert report.stats.cache_hits == expected_hits
        assert calls == {"begin": 2, "load": 0}

    def test_api_sweep_default_store_records_no_campaign(self, tmp_path, calls):
        from repro.api import EngineOptions, sweep

        sweep("fft", mtbes=100_000, seeds=2,
              options=EngineOptions(scale=SCALE, jobs=1))
        assert calls == {"begin": 0, "load": 0}
        store = RunStore(tmp_path / "default-store.sqlite")
        assert len(store) == 2
        assert store.campaign_ids() == ()

    def test_cli_sweep_store(self, tmp_path, calls, capsys):
        from repro.cli import main

        assert main([*self.SWEEP, "--store", str(tmp_path / "s.sqlite")]) == 0
        assert calls == {"begin": 1, "load": 0}

    @pytest.mark.slow
    def test_reproduce(self, tmp_path, calls):
        from repro.api import EngineOptions, reproduce

        reproduce("smoke", store=str(tmp_path / "s.sqlite"),
                  options=EngineOptions(jobs=1))
        assert calls["begin"] == 1


class TestConcurrentWriters:
    """Two engines over one store database must behave like one serial
    engine: same rows, no ``database is locked`` failures."""

    def _run_grid(self, path, specs, errors):
        try:
            engine = ParallelRunner(
                scale=SCALE, jobs=1, store=RunStore(path)
            )
            engine.run_specs(specs)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def _rows(self, path):
        store = RunStore(path)
        return {
            row.key: (row.spec, row.record) for row in store.query()
        }

    @pytest.mark.parametrize("overlap", [True, False], ids=["overlapping", "disjoint"])
    def test_concurrent_runners_match_serial(self, tmp_path, overlap):
        all_specs = [make_spec(seed) for seed in range(8)]
        if overlap:
            grids = (all_specs[:6], all_specs[2:])
        else:
            grids = (all_specs[:4], all_specs[4:])

        concurrent_path = tmp_path / "concurrent.sqlite"
        errors: list = []
        threads = [
            threading.Thread(target=self._run_grid, args=(concurrent_path, grid, errors))
            for grid in grids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        serial_path = tmp_path / "serial.sqlite"
        serial = ParallelRunner(
            scale=SCALE, jobs=1, store=RunStore(serial_path)
        )
        serial.run_specs(all_specs)

        assert self._rows(concurrent_path) == self._rows(serial_path)
