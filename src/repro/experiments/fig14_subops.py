"""Figure 14: CommGuard hardware suboperations vs committed instructions.

Per app, the error-free CommGuard run's suboperation counts — grouped as
FSM/Counter, ECC and Header-Bit per Table 3's classes — normalized to
committed processor instructions, plus the geometric mean and total.
Paper anchors: GMean total ~2%, worst case audiobeamformer 4.9%, with the
header-bit checks the most frequent class.
"""

from __future__ import annotations

from repro.apps.registry import APP_ORDER
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.report import format_table
from repro.experiments.runner import SimulationRunner, geometric_mean
from repro.machine.protection import ProtectionLevel
from repro.experiments.registry import register_figure

SERIES = ("fsm_counter", "ecc", "header_bit", "total")


def run(
    scale: float = 1.0,
    apps: tuple[str, ...] = APP_ORDER,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    store=None,
) -> dict[str, dict[str, float]]:
    """Returns {app: {series: ratio}} + "GMean"."""
    runner = runner or ParallelRunner(scale=scale, jobs=jobs, store=store)
    records = runner.run_specs(
        [
            RunSpec(app=app, protection=ProtectionLevel.COMMGUARD, mtbe=None)
            for app in apps
        ]
    )
    results: dict[str, dict[str, float]] = {
        app: dict(record.subop_ratios) for app, record in zip(apps, records)
    }
    results["GMean"] = {
        series: geometric_mean([results[app][series] for app in apps])
        for series in SERIES
    }
    return results


def main(scale: float = 1.0, jobs: int | None = None, store=None) -> str:
    results = run(scale=scale, jobs=jobs, store=store)
    headers = ["app"] + [f"{s} %" for s in SERIES]
    rows = [
        [app] + [100.0 * ratios[s] for s in SERIES]
        for app, ratios in results.items()
    ]
    text = "Figure 14: CommGuard suboperations / committed instructions\n"
    text += format_table(headers, rows)
    text += "\n(paper: GMean total ~2%, worst audiobeamformer 4.9%)"
    return text


def paper_targets():
    from repro.experiments.fidelity import (
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="fig14.subops_gmean",
            figure="fig14",
            description="GMean total suboperation ratio ~2%",
            paper_value=0.02,
            unit="fraction",
            band=ToleranceBand(pass_within=0.01, warn_within=0.03),
            measure=Measurement("subop_total_gmean"),
            source="Section 6.5 / Fig. 14 (GMean ~2%)",
        ),
        PaperTarget(
            name="fig14.audiobeamformer_subops",
            figure="fig14",
            description="worst-case suboperation ratio (audiobeamformer)",
            paper_value=0.049,
            unit="fraction",
            band=ToleranceBand(pass_within=0.02, warn_within=0.05),
            measure=Measurement("subop_total_ratio", app="audiobeamformer"),
            source="Section 6.5 / Fig. 14 (worst 4.9%)",
        ),
    )


register_figure(
    "fig14",
    module=__name__,
    description="suboperation ratios",
    paper_section="Section 6.5 / Fig. 14",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
