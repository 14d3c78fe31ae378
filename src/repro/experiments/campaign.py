"""Fault-injection campaigns with outcome classification.

Architecture fault-injection studies classify run outcomes rather than just
averaging quality; the paper's narrative uses the same taxonomy implicitly
(crash/hang vs. garbled output vs. tolerable degradation vs. unaffected).
This harness makes it explicit: run one benchmark many times under a
protection level and bucket every run.

===============  ==============================================================
``ERROR_FREE``   output bit-identical to the error-free run
``TOLERABLE``    quality within ``tolerable_db`` of the error-free baseline
``DEGRADED``     visibly degraded but above the catastrophic floor
``CATASTROPHIC`` quality at/below the floor, or the run hung / timed out
===============  ==============================================================

Campaigns execute through the parallel sweep engine
(:class:`~repro.experiments.parallel.ParallelRunner`): the per-seed runs
are independent replicated tasks that fan out over worker processes, share
the runner's built-app cache (including the error-free baseline used for
classification), and honour ``frame_scale`` and the CommGuard design knobs
of a :class:`RunSpec`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from repro.apps.base import BenchmarkApp
from repro.experiments.options import EngineOptions
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.report import format_table
from repro.experiments.runner import SimulationRunner
from repro.experiments.store import RunStore, derive_campaign_id
from repro.machine.protection import ProtectionLevel
from repro.quality.metrics import QUALITY_CAP_DB
from repro.experiments.registry import register_figure


class Outcome(enum.Enum):
    ERROR_FREE = "error-free"
    TOLERABLE = "tolerable"
    DEGRADED = "degraded"
    CATASTROPHIC = "catastrophic"


@dataclass(frozen=True)
class OutcomeThresholds:
    """Quality thresholds (dB) for the outcome buckets.

    ``tolerable_db``: maximum drop below the error-free baseline that still
    counts as tolerable.  ``catastrophic_db``: absolute quality floor below
    which output is considered garbage.
    """

    tolerable_db: float = 5.0
    catastrophic_db: float = 5.0


@dataclass
class CampaignResult:
    """Aggregated outcomes of one campaign.

    ``harness_failures`` counts runs the *engine* could not complete
    (keep-going sweeps return ``None`` for points that exhausted their
    retries); they are infrastructure faults, not simulated outcomes, so
    they are excluded from the outcome buckets and fractions.
    """

    app: str
    protection: ProtectionLevel
    mtbe: float
    counts: dict[Outcome, int] = field(default_factory=dict)
    qualities: list[float] = field(default_factory=list)
    total_errors_injected: int = 0
    harness_failures: int = 0

    @property
    def n_runs(self) -> int:
        return sum(self.counts.values())

    def fraction(self, outcome: Outcome) -> float:
        return self.counts.get(outcome, 0) / self.n_runs if self.n_runs else 0.0

    def mean_quality(self) -> float:
        return float(np.mean(self.qualities)) if self.qualities else float("nan")

    def acceptable_fraction(self) -> float:
        """Runs that are error-free or tolerable (the paper's success bar)."""
        return self.fraction(Outcome.ERROR_FREE) + self.fraction(Outcome.TOLERABLE)


def classify_outcome(
    quality_db: float,
    baseline_db: float,
    hung: bool,
    thresholds: OutcomeThresholds,
    quality_cap_db: float = QUALITY_CAP_DB,
) -> Outcome:
    """Bucket one run's result."""
    if hung:
        return Outcome.CATASTROPHIC
    baseline = min(baseline_db, quality_cap_db)
    if quality_db >= baseline:
        return Outcome.ERROR_FREE
    if quality_db >= baseline - thresholds.tolerable_db:
        return Outcome.TOLERABLE
    if quality_db <= thresholds.catastrophic_db:
        return Outcome.CATASTROPHIC
    return Outcome.DEGRADED


def run_campaign(
    app: BenchmarkApp | str,
    protection: ProtectionLevel,
    mtbe: float,
    n_runs: int = 20,
    thresholds: OutcomeThresholds | None = None,
    seed_base: int = 0,
    frame_scale: int = 1,
    spec: RunSpec | None = None,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    store: "RunStore | str | bool | None" = None,
    campaign_id: str | None = None,
) -> CampaignResult:
    """Inject faults across *n_runs* seeds and classify every outcome.

    *app* is a benchmark name or a prebuilt :class:`BenchmarkApp` (a
    prebuilt app is adopted into the runner's cache, so its build scale
    must match the runner's).  *spec* optionally carries non-default
    CommGuard knobs / error-model overrides for every run; its
    app/protection/mtbe/seed fields are overwritten by the campaign's.
    When *runner* is omitted a serial in-process engine is used.

    *store* records the campaign in a
    :class:`~repro.experiments.store.RunStore` (requires a
    :class:`ParallelRunner`): completed seeds become store hits on a
    rerun, so an interrupted campaign resumes where it stopped.
    *campaign_id* names the campaign row; omitted, a deterministic id is
    derived from the grid, so re-running the same call resumes it.
    """
    thresholds = thresholds or OutcomeThresholds()
    if runner is None:
        runner = ParallelRunner(jobs=1)
    if isinstance(app, BenchmarkApp):
        runner.adopt_app(app)
        app_name = app.name
    else:
        app_name = app
    baseline = min(runner.app(app_name).baseline_quality(), QUALITY_CAP_DB)

    base_spec = spec or RunSpec(app=app_name)
    specs = [
        replace(
            base_spec,
            app=app_name,
            protection=protection,
            mtbe=mtbe,
            seed=seed,
            frame_scale=frame_scale,
        )
        for seed in range(seed_base, seed_base + n_runs)
    ]
    run_store = RunStore.coerce(store)
    if run_store is not None:
        if not isinstance(runner, ParallelRunner):
            raise ValueError(
                "store-backed campaigns need a ParallelRunner "
                f"(got {type(runner).__name__})"
            )
        if campaign_id is None:
            campaign_id = derive_campaign_id(specs, runner.scale)
        run_store.begin_campaign(
            campaign_id, specs, runner.scale, app=app_name, metric="snr"
        )
        runner.store, runner.campaign = run_store, campaign_id
    records = runner.run_specs(specs, jobs=jobs)

    result = CampaignResult(app=app_name, protection=protection, mtbe=mtbe)
    for outcome in Outcome:
        result.counts[outcome] = 0
    for record in records:
        if record is None:  # failed point from a keep-going engine
            result.harness_failures += 1
            continue
        quality = min(record.quality_db, QUALITY_CAP_DB)
        outcome = classify_outcome(quality, baseline, record.hung, thresholds)
        result.counts[outcome] += 1
        result.qualities.append(quality)
        result.total_errors_injected += record.errors_injected
    return result


def compare_protections(
    app_name: str = "jpeg",
    mtbe: float = 400_000,
    n_runs: int = 10,
    scale: float = 1.0,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    store=None,
    protections: tuple[ProtectionLevel, ...] = (
        ProtectionLevel.PPU_ONLY,
        ProtectionLevel.PPU_RELIABLE_QUEUE,
        ProtectionLevel.COMMGUARD,
    ),
    options: EngineOptions | None = None,
) -> dict[ProtectionLevel, CampaignResult]:
    """One campaign per protection level, same app and error process.

    *store* is the engine's result cache, as for the figure harnesses.
    *options* is the shared :class:`EngineOptions` spelling of the engine
    knobs; when given it supersedes the loose ``scale``/``jobs``/``store``
    arguments, and a store it names makes every per-protection campaign
    resumable.
    """
    campaign_store = None
    if options is not None:
        scale = options.scale if options.scale is not None else scale
        jobs, store = options.jobs, options.batch_store()
        if options.store is not None:
            campaign_store = store
    runner = runner or ParallelRunner(scale=scale, jobs=jobs, store=store)
    return {
        protection: run_campaign(
            app_name, protection, mtbe, n_runs=n_runs, runner=runner,
            store=campaign_store,
        )
        for protection in protections
    }


def main(
    app_name: str = "jpeg",
    mtbe: float = 400_000,
    n_runs: int = 10,
    scale: float = 1.0,
    jobs: int | None = None,
    store=None,
    options: EngineOptions | None = None,
) -> str:
    results = compare_protections(
        app_name, mtbe=mtbe, n_runs=n_runs, scale=scale, jobs=jobs, store=store,
        options=options,
    )
    rows = []
    for protection, campaign in results.items():
        rows.append(
            [
                protection.value,
                f"{100 * campaign.fraction(Outcome.ERROR_FREE):.0f}%",
                f"{100 * campaign.fraction(Outcome.TOLERABLE):.0f}%",
                f"{100 * campaign.fraction(Outcome.DEGRADED):.0f}%",
                f"{100 * campaign.fraction(Outcome.CATASTROPHIC):.0f}%",
                campaign.mean_quality(),
            ]
        )
    text = (
        f"Fault-injection campaign: {app_name}, MTBE {mtbe / 1000:.0f}k, "
        f"{n_runs} runs per protection level\n"
    )
    text += format_table(
        ["protection", "error-free", "tolerable", "degraded", "catastrophic", "mean dB"],
        rows,
    )
    return text


def paper_targets():
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="campaign.jpeg_acceptable_2048k",
            figure="campaign",
            description="CommGuard keeps jpeg runs acceptable at MTBE 2048k",
            paper_value=1.0,
            unit="fraction",
            band=ToleranceBand(pass_within=0.34, warn_within=0.67),
            measure=Measurement(
                "acceptable_fraction", app="jpeg", mtbe=2_048_000.0
            ),
            comparison=Comparison.ABOVE,
            source="Section 6 narrative (tolerable-or-better outcomes)",
        ),
    )


register_figure(
    "campaign",
    module=__name__,
    description="fault-injection outcome campaign",
    paper_section="Section 6 methodology",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
