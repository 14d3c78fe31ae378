"""Store-backed campaign resume: interrupted sweeps finish byte-identically.

Two interruption modes are exercised: a deterministic in-process
``KeyboardInterrupt`` injected through the engine's ``fault_hook`` seam,
and a true SIGKILL of a ``repro sweep --store`` subprocess.  In both, the
resumed campaign must (a) re-execute zero completed specs, and (b) produce
a report byte-identical to an uninterrupted run of the same grid.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import api
from repro.api import EngineOptions, SweepReport
from repro.cli import main
from repro.experiments.parallel import FailureRecord, ParallelRunner, RunSpec
from repro.experiments.store import RunStore, derive_campaign_id

SCALE = 0.05
SRC = Path(__file__).parent.parent.parent / "src"


def make_grid(n: int = 8) -> list[RunSpec]:
    return [RunSpec(app="fft", mtbe=100_000.0, seed=seed) for seed in range(n)]


class InterruptAfter:
    """Deterministic interrupt: let *n* runs start, then raise."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.started = 0

    def __call__(self, spec, attempt) -> None:
        if self.started >= self.n:
            raise KeyboardInterrupt
        self.started += 1


def written_at_by_key(path) -> dict:
    store = RunStore(path)
    return {row.key: row.provenance["written_at"] for row in store.query()}


class TestInProcessResume:
    @pytest.mark.parametrize("resume_jobs", [1, 4])
    def test_interrupted_campaign_resumes_byte_identical(
        self, tmp_path, resume_jobs
    ):
        specs = make_grid(8)
        campaign = derive_campaign_id(specs, SCALE)

        # Uninterrupted reference run in its own store.
        ref_path = tmp_path / "ref.sqlite"
        RunStore(ref_path).begin_campaign(campaign, specs, SCALE)
        ParallelRunner(
            scale=SCALE, jobs=1,
            store=RunStore(ref_path), campaign=campaign,
        ).run_specs(specs)
        reference = SweepReport.from_store(
            RunStore(ref_path), campaign
        )
        assert all(point.ok for point in reference)

        # Interrupted run: 3 points complete, then KeyboardInterrupt.
        path = tmp_path / "store.sqlite"
        RunStore(path).begin_campaign(campaign, specs, SCALE)
        interrupted = ParallelRunner(
            scale=SCALE, jobs=1,
            store=RunStore(path), campaign=campaign,
            fault_hook=InterruptAfter(3),
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.run_specs(specs)
        assert interrupted.last_stats.interrupted

        status = RunStore(path).campaign(campaign)
        assert len(status.done) == 3
        assert len(status.pending) == 5
        before = written_at_by_key(path)

        # Resume: the full grid goes back through the engine; completed
        # positions are store hits, only the pending five execute.
        resumed = ParallelRunner(
            scale=SCALE, jobs=resume_jobs,
            store=RunStore(path), campaign=campaign,
        )
        resumed.run_specs(specs)
        assert resumed.last_stats.cache_hits == 3
        assert resumed.last_stats.executed == 5

        after = written_at_by_key(path)
        assert all(after[key] == stamp for key, stamp in before.items())

        report = SweepReport.from_store(RunStore(path), campaign)
        assert report.to_json() == reference.to_json()

    def test_resume_is_idempotent(self, tmp_path):
        specs = make_grid(4)
        campaign = derive_campaign_id(specs, SCALE)
        path = tmp_path / "store.sqlite"
        RunStore(path).begin_campaign(campaign, specs, SCALE)
        for _ in range(2):
            engine = ParallelRunner(
                scale=SCALE, jobs=1,
                store=RunStore(path), campaign=campaign,
            )
            engine.run_specs(specs)
        assert engine.last_stats.cache_hits == 4
        assert engine.last_stats.executed == 0


#: The four RunSpec fields repro 4.0 retired, as a 3.x writer serialized
#: them: the engine stored each traced run's spec with its trace path, and
#: the Queue Manager timeouts always at their default.
RETIRED_3X = {
    "trace": "traces/run.jsonl",
    "exec_mode": "precise",
    "push_timeout": 100_000,
    "pop_timeout": 100_000,
}


def age_to_3x(path) -> None:
    """Rewrite every spec document of a store as a 3.x writer left it."""
    conn = sqlite3.connect(path)
    with conn:
        for table in ("runs", "failures", "campaign_specs"):
            rows = conn.execute(f"SELECT rowid, spec FROM {table}").fetchall()
            assert rows, table
            for rowid, spec in rows:
                doc = {**json.loads(spec), **RETIRED_3X}
                conn.execute(
                    f"UPDATE {table} SET spec=? WHERE rowid=?",
                    (json.dumps(doc, sort_keys=True), rowid),
                )
    conn.close()


class TestLoads3xData:
    """Stores and ``sweep --output`` documents written by repro 3.x, whose
    specs carry the retired fields, still load."""

    def test_campaign_resumes_with_zero_executions(self, tmp_path):
        path = tmp_path / "store.sqlite"
        options = EngineOptions(scale=SCALE, jobs=1, store=path)
        api.sweep("fft", mtbes="100k", seeds=3, options=options)
        specs = api.sweep_grid("fft", "commguard", "100k", 3)
        campaign = derive_campaign_id(specs, SCALE)
        reference = SweepReport.from_store(path, campaign)
        lost = RunSpec(app="fft", mtbe=50_000.0, seed=9)
        RunStore(path).record_failure(
            FailureRecord(
                index=0, spec=lost, failure="exception", message="boom",
                attempts=1,
            ),
            scale=SCALE,
        )
        age_to_3x(path)

        store = RunStore(path)
        assert [row.spec for row in store.query()] == specs
        assert store.failure_for(lost.content_key(SCALE)).spec == lost
        assert store.campaign(campaign).specs == tuple(specs)
        assert SweepReport.from_store(store, campaign).to_json() == (
            reference.to_json()
        )
        engine = ParallelRunner(
            scale=SCALE, jobs=1, store=store, campaign=campaign
        )
        engine.run_specs(store.campaign(campaign).specs)
        assert engine.last_stats.executed == 0
        assert engine.last_stats.cache_hits == len(specs)

    def test_report_renders_a_3x_sweep_document(self, tmp_path, capsys):
        report = api.sweep(
            "fft", ["error-free", "commguard"], mtbes="100k", seeds=2,
            options=EngineOptions(scale=SCALE, jobs=1, cache=False),
        )
        current, aged = tmp_path / "current.json", tmp_path / "aged.json"
        current.write_text(report.to_json())
        doc = report.to_dict()
        doc["options"]["exec_mode"] = "fast"
        for point in doc["points"]:
            point["spec"].update(RETIRED_3X)
        aged.write_text(json.dumps(doc))
        assert main(["report", str(current)]) == 0
        expected = capsys.readouterr().out
        assert main(["report", str(aged)]) == 0
        assert capsys.readouterr().out == expected
        assert SweepReport.from_json(aged.read_text()).to_json() == (
            report.to_json()
        )

    def test_other_unknown_spec_keys_still_fail(self):
        from repro.experiments.cache import spec_from_dict, spec_to_dict

        doc = spec_to_dict(RunSpec(app="fft", mtbe=100_000.0))
        assert spec_from_dict({**doc, **RETIRED_3X}) == spec_from_dict(doc)
        with pytest.raises(TypeError):
            spec_from_dict({**doc, "turbo": True})


def age_options_to_4x(path) -> None:
    """Rewrite every campaign's options document as a 4.x writer left it."""
    conn = sqlite3.connect(path)
    with conn:
        rows = conn.execute("SELECT campaign, options FROM campaigns").fetchall()
        assert rows
        for campaign, options in rows:
            doc = {**json.loads(options), "retry_backoff": 0.0}
            conn.execute(
                "UPDATE campaigns SET options=? WHERE campaign=?",
                (json.dumps(doc, sort_keys=True), campaign),
            )
    conn.close()


class TestLoads4xData:
    """Stores, ``sweep --output`` documents and traces written by repro
    4.x, whose engine options carry ``retry_backoff`` and whose
    ``run-retried`` events carry ``backoff_seconds``, still load."""

    def test_campaign_resumes_with_zero_executions(self, tmp_path, capsys):
        path = tmp_path / "store.sqlite"
        options = EngineOptions(scale=SCALE, jobs=1, store=path)
        api.sweep("fft", mtbes="100k", seeds=3, options=options)
        (campaign,) = RunStore(path).campaign_ids()
        reference = SweepReport.from_store(path, campaign)
        age_options_to_4x(path)
        assert RunStore(path).campaign(campaign).options["retry_backoff"] == 0.0

        output = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["sweep", "--store", str(path), "--resume", campaign,
                     "--jobs", "1", "--output", str(output)]) == 0
        assert "[sweep] 3/3 runs (3 cached)" in capsys.readouterr().out
        assert output.read_text() == reference.to_json() + "\n"
        assert SweepReport.from_store(path, campaign).to_json() == (
            reference.to_json()
        )

    def test_report_renders_a_4x_sweep_document(self, tmp_path, capsys):
        report = api.sweep(
            "fft", ["error-free", "commguard"], mtbes="100k", seeds=2,
            options=EngineOptions(scale=SCALE, jobs=1, cache=False),
        )
        current, aged = tmp_path / "current.json", tmp_path / "aged.json"
        current.write_text(report.to_json())
        doc = report.to_dict()
        doc["options"]["retry_backoff"] = 0.0
        aged.write_text(json.dumps(doc))
        assert main(["report", str(current)]) == 0
        expected = capsys.readouterr().out
        assert main(["report", str(aged)]) == 0
        assert capsys.readouterr().out == expected
        assert SweepReport.from_json(aged.read_text()).to_json() == (
            report.to_json()
        )

    def test_a_run_retried_line_parses(self, tmp_path):
        from repro.observability import RunRetried
        from repro.observability.tracer import read_trace

        line = {
            "kind": "run-retried", "seq": 0, "app": "fft", "seed": 1,
            "failure": "exception", "attempt": 1, "backoff_seconds": 0.0,
        }
        trace = tmp_path / "sweep.jsonl"
        trace.write_text(json.dumps(line) + "\n")
        ((_, event),) = read_trace(trace)
        assert event == RunRetried(
            app="fft", seed=1, failure="exception", attempt=1
        )


@pytest.mark.slow
class TestSigkillResume:
    """A SIGKILLed ``repro sweep --store`` subprocess resumes cleanly."""

    SWEEP = [
        "sweep", "fft", "--mtbe", "64k", "128k", "256k", "--seeds", "10",
        "--scale", str(SCALE), "--store", "db.sqlite",
    ]

    def _env(self):
        pythonpath = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        return {**os.environ, "PYTHONPATH": pythonpath}

    def _repro(self, cwd, *argv, check=True):
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=self._env(),
            capture_output=True, text=True, timeout=300,
        )
        if check:
            assert result.returncode == 0, result.stderr
        return result

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_kill_and_resume_byte_identical(self, tmp_path, jobs):
        ref_dir = tmp_path / "ref"
        kill_dir = tmp_path / "kill"
        ref_dir.mkdir()
        kill_dir.mkdir()
        sweep = [*self.SWEEP, "--jobs", str(jobs)]

        # Uninterrupted reference.
        self._repro(ref_dir, *sweep, "--output", "report.json")

        # Launch the same sweep, SIGKILL it once the store shows progress.
        # Its own session makes the sweep and its pool workers one process
        # group, so the workers it orphans can be reaped afterwards.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *sweep],
            cwd=kill_dir, env=self._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        db = kill_dir / "db.sqlite"
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if process.poll() is not None:
                    break
                if db.exists() and len(RunStore(db)) >= 2:
                    process.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.01)
            process.wait(timeout=60)
            assert process.returncode == -signal.SIGKILL
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the whole group is already gone

        store = RunStore(db)
        campaign = store.campaign_ids()[0]
        status = store.campaign(campaign)
        assert len(status.done) >= 2
        before = written_at_by_key(db)

        # Resume at a different worker count than the original run.
        resume_jobs = "4" if jobs == 1 else "1"
        self._repro(
            kill_dir, "sweep", "--store", "db.sqlite", "--resume", campaign,
            "--jobs", resume_jobs, "--output", "report.json",
        )

        after = written_at_by_key(db)
        assert all(after[key] == stamp for key, stamp in before.items())
        assert RunStore(db).campaign(campaign).pending == ()
        assert (
            (kill_dir / "report.json").read_bytes()
            == (ref_dir / "report.json").read_bytes()
        )
