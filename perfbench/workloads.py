"""The benchmark's workloads: cold paper reproduction, a cold jpeg sweep,
and a replay of that sweep from a filled store.

Each workload is closed-loop from one process: the next call starts when
the previous one returns.  Every timed call gets its own fresh store with
the flat cache off, so a cold workload executes every run and the replay
executes none.  A workload only drives public entry points
(``repro.api.reproduce``, ``repro.api.sweep``, ``RunStore`` and
``SweepReport.from_store``); ``call`` is the timed part and ``finish``
turns its result into the records and the problems found, untimed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path

#: Worker processes per timed call: the two cores of the reference box.
JOBS = 2

#: Protection levels of the jpeg grid (error-free contributes one point).
PROTECTIONS = ("ppu-only", "ppu-reliable-queue", "commguard", "error-free")

#: App-build scale and seeds per point of the jpeg grid: 481 runs.
SWEEP_SCALE = 0.25
SWEEP_SEEDS = 20

#: Number of distinct jpeg grids; ``--seed n`` selects grid ``n % 8``, so
#: every grid a seed can select has a pinned fingerprint in expected.json.
GRID_VARIANTS = 8


@dataclass
class Outcome:
    """What one timed call produced, checked.  It keeps the records'
    fingerprint, not the records, so a run's memory does not grow with
    the number of calls it makes."""

    total: int
    executed: int
    hits: int
    failed: int
    records: InitVar[list]
    problems: list[str] = field(default_factory=list)
    fingerprint: dict = field(init=False)
    sim_instructions: int = field(init=False)

    def __post_init__(self, records: list) -> None:
        self.fingerprint = fingerprint(records)
        self.sim_instructions = sum(record.committed_instructions for record in records)


def _record_doc(record) -> dict:
    """The benchmark's own record serialization, so refactoring the
    program's serializers cannot move a pinned digest."""
    doc = dataclasses.asdict(record)
    doc["protection"] = record.protection.value
    return doc


def fingerprint(records: list) -> dict:
    """Exact digest of a campaign's records plus their summed counts.

    The digest is a sha256 over sorted-key JSON, not ``repr``: records
    read back from the store order ``subop_ratios`` differently, yet
    compare equal to freshly executed ones.
    """
    docs = [_record_doc(record) for record in records]
    payload = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    summed = (
        "committed_instructions", "errors_injected", "padded_items",
        "discarded_items", "timeouts", "hung",
    )
    return {
        "runs": len(docs),
        "records_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        **{name: sum(doc[name] for doc in docs) for name in summed},
    }


def _isolation(stats, cold: bool) -> list[str]:
    """A stray store hit makes a cold number meaningless, and a stray
    execution makes a replay number meaningless."""
    problems = []
    if stats.failed:
        problems.append(f"{stats.failed} of {stats.total} runs failed")
    if cold and (stats.executed != stats.total or stats.cache_hits):
        problems.append(
            f"isolation: cold call executed {stats.executed} of {stats.total} "
            f"runs with {stats.cache_hits} store hits"
        )
    if not cold and (stats.executed or stats.cache_hits != stats.total):
        problems.append(
            f"isolation: replay executed {stats.executed} runs and hit "
            f"{stats.cache_hits} of {stats.total}"
        )
    return problems


def _without_provenance(text: str) -> list[str]:
    """Report lines minus the environment rows of the provenance table."""
    lines, in_provenance = [], False
    for line in text.splitlines():
        if line.startswith("## "):
            in_provenance = line == "## Provenance"
        if in_provenance and line.split(" ", 1)[0] in ("git", "python", "platform"):
            continue
        lines.append(line)
    return lines


class PaperReduced:
    """A cold ``reproduce("reduced")``: 66 runs over 6 apps x 4 protections.

    Its run seeds are fixed by the tier, so ``--seed`` does not change it.
    Its outputs are checked against the committed REPRODUCTION.md.
    """

    name = "paper-reduced"
    entry = "experiments.reproduce"
    calls_per_traced_pass = 1

    def __init__(self, seed: int, ctx) -> None:
        self.ctx = ctx
        self.pin = ("paper-reduced", None)

    def setup(self):
        return None

    def call(self, state, jobs: int):
        from repro.api import reproduce
        from repro.experiments import EngineOptions

        work = self.ctx.fresh_dir()
        run = reproduce(
            "reduced",
            store=str(work / "store.sqlite"),
            out=str(work / "bundle"),
            options=EngineOptions(jobs=jobs, cache=False),
        )
        return run, work

    def finish(self, handle) -> Outcome:
        from repro.api import SweepReport

        run, work = handle
        stats = run.stats
        records = SweepReport.from_store(run.store, run.report.campaign).records
        run.store.close()
        outcome = Outcome(
            total=stats.total,
            executed=stats.executed,
            hits=stats.cache_hits,
            failed=stats.failed,
            records=records,
            problems=_isolation(stats, cold=True),
        )
        expected = _without_provenance(
            (self.ctx.root / "REPRODUCTION.md").read_text(encoding="utf-8")
        )
        produced = _without_provenance(
            (work / "bundle" / "REPRODUCTION.md").read_text(encoding="utf-8")
        )
        if produced != expected:
            line = next(
                (i for i, (a, b) in enumerate(zip(produced, expected)) if a != b),
                min(len(produced), len(expected)),
            )
            outcome.problems.append(
                "REPRODUCTION.md differs from the committed report at "
                f"non-provenance line {line + 1}"
            )
        return outcome


class SweepJpeg:
    """A cold ``sweep("jpeg")`` over 4 protections x the quality MTBE
    ladder x 20 seeds at scale 0.25: 481 short runs."""

    name = "sweep-jpeg"
    entry = "experiments.sweep"
    calls_per_traced_pass = 1

    def __init__(self, seed: int, ctx) -> None:
        self.ctx = ctx
        variant = seed % GRID_VARIANTS
        self.seeds = range(SWEEP_SEEDS * variant, SWEEP_SEEDS * (variant + 1))
        self.pin = ("jpeg-grid", str(variant))

    def setup(self):
        return None

    def sweep(self, store: Path, jobs: int):
        from repro.api import sweep
        from repro.experiments import MTBE_LADDER_QUALITY, EngineOptions

        return sweep(
            "jpeg",
            PROTECTIONS,
            mtbes=MTBE_LADDER_QUALITY,
            seeds=self.seeds,
            options=EngineOptions(
                scale=SWEEP_SCALE, jobs=jobs, cache=False, store=str(store)
            ),
        )

    def call(self, state, jobs: int):
        return self.sweep(self.ctx.fresh_dir() / "store.sqlite", jobs)

    def finish(self, report) -> Outcome:
        stats = report.stats
        return Outcome(
            total=stats.total,
            executed=stats.executed,
            hits=stats.cache_hits,
            failed=stats.failed,
            records=report.records,
            problems=_isolation(stats, cold=True),
        )


@dataclass
class FilledStore:
    path: Path
    campaign: str
    fingerprint: dict


class SweepResume(SweepJpeg):
    """Replays of the ``sweep-jpeg`` campaign from a store the set-up
    filled: each call reruns the sweep (all store hits) and rebuilds the
    report with ``SweepReport.from_store``."""

    name = "sweep-resume"
    entry = "experiments.replay"
    #: One replay takes ~0.15 s: the traced run times 20 of them, so its
    #: overhead is measured over seconds rather than milliseconds.
    calls_per_traced_pass = 20

    def setup(self) -> FilledStore:
        from repro.experiments import RunStore

        path = self.ctx.fresh_dir() / "store.sqlite"
        filled = SweepJpeg.finish(self, self.sweep(path, JOBS))
        if filled.problems:
            raise RuntimeError(f"store fill failed: {filled.problems}")
        store = RunStore(path)
        (campaign,) = store.campaign_ids()
        store.close()
        return FilledStore(path, campaign, filled.fingerprint)

    def call(self, state: FilledStore, jobs: int):
        from repro.api import SweepReport

        report = self.sweep(state.path, jobs)
        rebuilt = SweepReport.from_store(str(state.path), state.campaign)
        return state, report, rebuilt

    def finish(self, handle) -> Outcome:
        state, report, rebuilt = handle
        stats = report.stats
        outcome = Outcome(
            total=stats.total,
            executed=stats.executed,
            hits=stats.cache_hits,
            failed=stats.failed,
            records=report.records,
            problems=_isolation(stats, cold=False),
        )
        for label, digest in (
            ("replay", outcome.fingerprint),
            ("from_store", fingerprint(rebuilt.records)),
        ):
            if digest != state.fingerprint:
                outcome.problems.append(f"{label} records differ from the filled campaign")
        return outcome


WORKLOADS = {w.name: w for w in (PaperReduced, SweepJpeg, SweepResume)}
