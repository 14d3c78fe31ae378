"""The sweep parent's path: one key per spec, set-based store reads, and a
bounded window of multi-spec pool tasks.

Each spec's content key is computed once per call and carried to every
consumer.  The store answers a grid's lookups with a few set queries.
The pool keeps at most ``TASKS_PER_WORKER`` tasks per worker in flight, a
task may carry several short runs, and each task's records land in one
transaction — while every fault still hits only its own spec.
"""

import json
import sqlite3
from collections import Counter

import pytest

import repro.experiments.parallel as parallel
from repro.api import (
    AppInfo,
    EngineOptions,
    SweepPoint,
    SweepReport,
    sweep,
    sweep_grid,
)
from repro.cli import main
from repro.experiments.cache import record_from_dict, spec_from_dict
from repro.experiments.paper import run_paper
from repro.experiments.parallel import FailureRecord, ParallelRunner, RunSpec
from repro.experiments.runner import SimulationRunner
from repro.experiments.store import RunStore, derive_campaign_id
from tests.experiments import _fault_hooks as hooks

SCALE = 0.05
JOBS = 2
VICTIM = RunSpec(app="fft", mtbe=100_000, seed=hooks.VICTIM_SEED)


@pytest.fixture
def keyed(monkeypatch):
    """Every spec :meth:`RunSpec.content_key` hashes in this process."""
    calls = []
    content_key = RunSpec.content_key

    def counted(spec, scale=1.0):
        calls.append(spec)
        return content_key(spec, scale)

    monkeypatch.setattr(RunSpec, "content_key", counted)
    return calls


class TestOneKeyPerSpec:
    def test_api_sweep_and_its_replay(self, tmp_path, keyed):
        options = EngineOptions(
            scale=SCALE, jobs=JOBS, store=tmp_path / "s.sqlite"
        )
        specs = sweep_grid("fft", ["error-free", "commguard"], "100k", 3)
        for hits in (0, len(specs)):  # a fresh campaign, then its replay
            keyed.clear()
            report = sweep(
                "fft", ["error-free", "commguard"], mtbes="100k", seeds=3,
                options=options,
            )
            assert report.stats.cache_hits == hits
            assert Counter(keyed) == Counter(specs)

    def test_cli_sweep_resume(self, tmp_path, keyed, capsys):
        store = str(tmp_path / "s.sqlite")
        assert main(["sweep", "fft", "--mtbe", "100k", "--seeds", "3",
                     "--scale", str(SCALE), "--jobs", "1",
                     "--store", store]) == 0
        (campaign,) = RunStore(store).campaign_ids()
        specs = RunStore(store).campaign(campaign).specs
        keyed.clear()
        assert main(["sweep", "--store", store, "--resume", campaign,
                     "--jobs", "1",
                     "--output", str(tmp_path / "report.json")]) == 0
        assert Counter(keyed) == Counter(specs)

    def test_smoke_paper(self, tmp_path, keyed):
        run = run_paper(
            "smoke",
            options=EngineOptions(jobs=JOBS, store=str(tmp_path / "s.sqlite")),
        )
        specs = run.store.campaign(run.report.campaign).specs
        assert len(keyed) == run.stats.total == len(specs)
        assert Counter(keyed) == Counter(specs)


def fft_grid(n: int, victim_at: int | None = None) -> list[RunSpec]:
    """*n* short fft runs; the fault hooks' victim sits at *victim_at*."""
    seeds = [seed for seed in range(n + 1) if seed != hooks.VICTIM_SEED][:n]
    specs = [RunSpec(app="fft", mtbe=100_000, seed=seed) for seed in seeds]
    if victim_at is not None:
        specs[victim_at] = VICTIM
    return specs


@pytest.fixture
def tasks(monkeypatch):
    """The tasks every pool submits, and the futures each wait covers.

    Tasks aim for far more than a short run's wall time, so packing is
    bounded only by the share of the queue one task may take, on a host
    of any speed."""
    monkeypatch.setattr(parallel, "TASK_SECONDS", 1.0)
    seen = {"tasks": [], "waits": []}
    submit, wait = ParallelRunner._submit, parallel.wait

    def spied_submit(self, pool, task, relay):
        seen["tasks"].append([item[1] for item in task])
        return submit(self, pool, task, relay)

    def spied_wait(futures, *args, **kwargs):
        seen["waits"].append(len(futures))
        return wait(futures, *args, **kwargs)

    monkeypatch.setattr(ParallelRunner, "_submit", spied_submit)
    monkeypatch.setattr(parallel, "wait", spied_wait)
    return seen


GRID = fft_grid(40, victim_at=20)


@pytest.fixture(scope="module")
def clean_records():
    return ParallelRunner(scale=SCALE, jobs=1).run_specs(GRID)


def victim_task(seen) -> list[RunSpec]:
    """The first task that carried the victim."""
    return next(task for task in seen["tasks"] if VICTIM in task)


class TestBoundedWindow:
    def test_tasks_pack_runs_and_the_window_stays_bounded(
        self, tasks, clean_records
    ):
        runner = ParallelRunner(scale=SCALE, jobs=JOBS)
        assert runner.run_specs(GRID) == clean_records
        assert len(tasks["tasks"]) < len(GRID)
        assert sorted(map(len, tasks["tasks"]))[-1] > 1
        assert sum(map(len, tasks["tasks"])) == len(GRID)
        assert 0 < max(tasks["waits"]) <= parallel.TASKS_PER_WORKER * JOBS

    def test_one_commit_per_task(self, tmp_path, tasks, clean_records):
        store = RunStore(tmp_path / "s.sqlite")
        commits = []
        store._conn().set_trace_callback(
            lambda sql: commits.append(sql) if sql.strip().upper() == "COMMIT" else None
        )
        runner = ParallelRunner(scale=SCALE, jobs=JOBS, store=store)
        assert runner.run_specs(GRID) == clean_records
        assert len(commits) == len(tasks["tasks"]) < len(GRID)
        assert len(store) == len(GRID)

    def test_interrupt_from_progress_leaves_counted_runs_stored(
        self, tmp_path, tasks
    ):
        store = RunStore(tmp_path / "s.sqlite")

        def interrupt(stats):
            if stats.completed >= 12:
                raise KeyboardInterrupt

        runner = ParallelRunner(
            scale=SCALE, jobs=JOBS, store=store, progress=interrupt
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run_specs(GRID)
        stats = runner.last_stats
        assert stats.interrupted and stats.completed == 12
        assert len(store) >= stats.completed


class TestFaultsInsideATask:
    """Each spec of a task runs under its own deadline, fault hook and
    attempt number, so a fault hits only its victim."""

    def test_a_crash_fails_only_the_victim(self, tasks, clean_records):
        runner = ParallelRunner(
            scale=SCALE, jobs=JOBS, strict=False, fault_hook=hooks.always_crash
        )
        records = runner.run_specs(GRID)
        assert len(victim_task(tasks)) > 1
        for index, record in enumerate(records):
            expected = None if GRID[index] == VICTIM else clean_records[index]
            assert record == expected
        (failure,) = runner.last_stats.failures
        assert (failure.spec, failure.failure) == (VICTIM, "crash")
        assert runner.last_stats.retried == 0

    def test_a_timeout_preempts_only_the_victim(self, tasks, clean_records):
        runner = ParallelRunner(
            scale=SCALE, jobs=JOBS, retries=1, run_timeout=0.5,
            fault_hook=hooks.hang_once,
        )
        assert runner.run_specs(GRID) == clean_records
        assert len(victim_task(tasks)) > 1
        assert runner.last_stats.retried == 1
        assert runner.last_stats.worker_crashes == 0

    def test_an_exception_retries_only_the_victim(self, tasks, clean_records):
        runner = ParallelRunner(
            scale=SCALE, jobs=JOBS, retries=1, fault_hook=hooks.fail_once
        )
        assert runner.run_specs(GRID) == clean_records
        assert len(victim_task(tasks)) > 1
        assert runner.last_stats.retried == 1
        assert runner.last_stats.failed == 0


class TestQuarantine:
    """Specs a crash loses together are quarantined.  Once the main grid
    drains they re-run one at a time on a one-worker pool, respawned only
    when a crash breaks it; the spec charged there retries there."""

    def test_one_worker_pool_is_reused_until_a_crash(
        self, tasks, clean_records, monkeypatch
    ):
        crashes, spawned, completed = [], [], [0]
        spawn = ParallelRunner._spawn_pool

        def spied_spawn(self, workers):
            spawned.append((workers, len(crashes), completed[0]))
            return spawn(self, workers)

        def progress(stats):
            completed[0] = stats.completed

        class Crashes:
            def emit(self, event):
                if event.kind == "worker-crashed":
                    crashes.append(event.lost)

        monkeypatch.setattr(ParallelRunner, "_spawn_pool", spied_spawn)
        runner = ParallelRunner(
            scale=SCALE, jobs=JOBS, retries=1, fault_hook=hooks.crash_once,
            progress=progress,
        )
        runner.tracer = Crashes()
        assert runner.run_specs(GRID) == clean_records
        # The victim's task lost several specs; re-run alone, the victim
        # crashed again and was charged.
        assert len(crashes) == 2 and crashes[0] > 1 and crashes[1] == 1
        assert runner.last_stats.retried == 1
        drained = len(GRID) - crashes[0]
        assert spawned[0][0] == JOBS
        quarantine = [
            (workers, crashed) for workers, crashed, done in spawned
            if done >= drained
        ]
        assert quarantine and all(workers == 1 for workers, _ in quarantine)
        respawned_after = [crashed for _, crashed in quarantine]
        assert respawned_after == sorted(set(respawned_after))
        assert respawned_after[-1] == 2
        # The victim's retry ran last, alone, on the respawned pool.
        assert tasks["tasks"][-1] == [VICTIM]


def per_key_status(path, campaign):
    """A campaign's done and failed positions, derived one key at a time."""
    conn = sqlite3.connect(path)
    keys = [
        key for (key,) in conn.execute(
            "SELECT key FROM campaign_specs WHERE campaign=? ORDER BY position",
            (campaign,),
        )
    ]
    done = {
        i for i, key in enumerate(keys)
        if conn.execute("SELECT 1 FROM runs WHERE key=?", (key,)).fetchone()
    }
    failed = {
        i for i, key in enumerate(keys)
        if i not in done
        and conn.execute("SELECT 1 FROM failures WHERE key=?", (key,)).fetchone()
    }
    conn.close()
    return keys, done, failed


def per_key_report(path, campaign, specs) -> SweepReport:
    """The campaign's report, each position read with its own queries."""
    conn = sqlite3.connect(path)
    keys, _, _ = per_key_status(path, campaign)
    points = []
    for position, (spec, key) in enumerate(zip(specs, keys)):
        row = conn.execute("SELECT record FROM runs WHERE key=?", (key,)).fetchone()
        try:
            record = record_from_dict(json.loads(row[0])) if row else None
        except ValueError:
            record = None
        failure = None
        if record is None:
            row = conn.execute(
                "SELECT spec, failure, message, attempts FROM failures "
                "WHERE key=? ORDER BY id DESC LIMIT 1",
                (key,),
            ).fetchone()
            if row is not None:
                failed_spec = spec_from_dict(json.loads(row[0]))
                failure = FailureRecord(position, failed_spec, *row[1:])
        points.append(SweepPoint(spec=spec, record=record, failure=failure))
    conn.close()
    return SweepReport(
        app=AppInfo(name="fft", metric="snr"), points=points,
        options=EngineOptions(),
    )


class TestSetBasedReads:
    def test_campaign_sets_and_report_match_per_key_reads(self, tmp_path):
        # Positions: 0 done, 1 failed, 2 failed then done, 3 corrupt row,
        # 4 corrupt row with a failure, 5 failed twice, 6 pending.
        specs = [RunSpec(app="fft", mtbe=100_000.0, seed=s) for s in range(7)]
        keys = [spec.content_key(SCALE) for spec in specs]
        path = tmp_path / "s.sqlite"
        store = RunStore(path)
        campaign = derive_campaign_id(specs, SCALE, keys)
        store.begin_campaign(campaign, specs, SCALE, keys=keys)
        record = SimulationRunner(scale=SCALE).execute_spec(specs[0])

        def fail(position, message):
            store.record_failure(
                FailureRecord(-1, specs[position], "exception", message, 1),
                campaign=campaign, scale=SCALE,
            )

        fail(1, "boom")
        fail(2, "boom")
        fail(4, "boom")
        fail(5, "first")
        fail(5, "latest")
        store.store_many(
            (keys[i], specs[i], SCALE, record, None) for i in (0, 2, 3, 4)
        )
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE runs SET record='{not json' WHERE key IN (?, ?)",
                (keys[3], keys[4]),
            )
        conn.close()

        status = store.campaign(campaign)
        expected_keys, done, failed = per_key_status(path, campaign)
        assert status.keys == tuple(expected_keys) == tuple(keys)
        assert (status.done, status.failed) == (done, failed)
        assert (done, failed) == ({0, 2, 3, 4}, {1, 5})
        assert status.pending == (6,)

        report = SweepReport.from_store(store, campaign)
        assert report.to_json() == per_key_report(path, campaign, specs).to_json()
        assert [point.failure.message if point.failure else None
                for point in report] == [
            None, "boom", None, None, "boom", "latest", None,
        ]

    def test_lookups_span_several_queries(self, tmp_path, monkeypatch):
        import repro.experiments.store as store_module

        monkeypatch.setattr(store_module, "_KEYS_PER_QUERY", 2)
        specs = [RunSpec(app="fft", mtbe=100_000.0, seed=s) for s in range(5)]
        keys = [spec.content_key(SCALE) for spec in specs]
        store = RunStore(tmp_path / "s.sqlite")
        record = SimulationRunner(scale=SCALE).execute_spec(specs[0])
        store.store_many((keys[i], specs[i], SCALE, record, None) for i in (0, 2, 4))
        for i in (1, 3):
            store.record_failure(
                FailureRecord(-1, specs[i], "timeout", "late", 2), scale=SCALE
            )
        assert sorted(store.load_many(keys)) == sorted(keys[i] for i in (0, 2, 4))
        assert sorted(store.failures_for(keys)) == sorted(keys[i] for i in (1, 3))
