"""Store-backed campaign resume: interrupted sweeps finish byte-identically.

Two interruption modes are exercised: a deterministic in-process
``KeyboardInterrupt`` injected through the engine's ``fault_hook`` seam,
and a true SIGKILL of a ``repro sweep --store`` subprocess.  In both, the
resumed campaign must (a) re-execute zero completed specs, and (b) produce
a report byte-identical to an uninterrupted run of the same grid.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import SweepReport
from repro.experiments.parallel import ParallelRunner, RunSpec
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
