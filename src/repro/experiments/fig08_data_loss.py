"""Figure 8: ratio of lost (padded + discarded) data to accepted data.

Per app and MTBE, the mean over seeds of
``(padded items + discarded items) / accepted items`` — the paper plots
this log-scale from 1e-8 to 1e-1 and highlights that loss stays below 0.2%
even at extreme error rates, with jpeg losing the most because it has the
lowest frame/item ratio.

The whole app x MTBE x seed grid is one fan-out through the parallel
engine.
"""

from __future__ import annotations

from repro.apps.registry import APP_ORDER
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.plotting import loss_chart
from repro.experiments.report import format_table
from repro.experiments.runner import SimulationRunner
from repro.experiments.sweeps import MTBE_LADDER_LOSS, seed_list
from repro.experiments.registry import register_figure


def run(
    scale: float = 1.0,
    n_seeds: int = 3,
    apps: tuple[str, ...] = APP_ORDER,
    ladder: tuple[int, ...] = MTBE_LADDER_LOSS,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    store=None,
) -> dict[str, dict[int, float]]:
    """Returns {app: {mtbe: mean loss ratio}}."""
    runner = runner or ParallelRunner(scale=scale, jobs=jobs, store=store)
    seeds = seed_list(n_seeds)
    grid = [(app, mtbe) for app in apps for mtbe in ladder]
    records = runner.run_specs(
        [
            RunSpec(app=app, mtbe=mtbe, seed=seed)
            for app, mtbe in grid
            for seed in seeds
        ]
    )
    results: dict[str, dict[int, float]] = {app: {} for app in apps}
    for index, (app, mtbe) in enumerate(grid):
        chunk = records[index * n_seeds : (index + 1) * n_seeds]
        ratios = [record.data_loss_ratio for record in chunk]
        results[app][mtbe] = sum(ratios) / len(ratios)
    return results


def main(
    scale: float = 1.0, n_seeds: int = 3, jobs: int | None = None, store=None
) -> str:
    results = run(scale=scale, n_seeds=n_seeds, jobs=jobs, store=store)
    ladder = sorted(next(iter(results.values())))
    headers = ["app"] + [f"{m // 1000}k" for m in ladder]
    rows = [
        [app] + [series[m] for m in ladder] for app, series in results.items()
    ]
    text = "Figure 8: lost/accepted data ratio vs per-core MTBE\n"
    text += format_table(headers, rows)
    text += "\n\n" + loss_chart(results)
    text += "\n(paper: below 2e-3 everywhere at MTBE >= 512k; jpeg the highest)"
    return text


def paper_targets():
    """Fig. 8's headline: lost/accepted data stays below 0.2% at
    MTBE >= 512k, with jpeg the worst app."""
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    def below(app: str) -> PaperTarget:
        return PaperTarget(
            name=f"fig8.{app}_loss_512k",
            figure="fig8",
            description=f"{app} data loss under 0.2% at MTBE 512k",
            paper_value=0.002,
            unit="ratio",
            band=ToleranceBand(pass_within=0.0, warn_within=0.002),
            measure=Measurement("mean_loss_ratio", app=app, mtbe=512_000.0),
            comparison=Comparison.BELOW,
            source="Section 6.1 / Fig. 8",
        )

    return (below("jpeg"), below("fft"))


register_figure(
    "fig8",
    module=__name__,
    description="data loss vs MTBE, 6 apps",
    paper_section="Section 6.1 / Fig. 8",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
