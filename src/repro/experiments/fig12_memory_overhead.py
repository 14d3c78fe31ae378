"""Figure 12: extra memory events due to frame headers.

Per app, the ratio of header loads/stores to all processor loads/stores in
an error-free CommGuard run (deterministic; no seeds needed), plus the
geometric mean.  Paper anchors: geometric mean below 0.2%; worst case
audiobeamformer with 0.66% extra loads and 0.75% extra stores (its frames
are a single item).
"""

from __future__ import annotations

from repro.apps.registry import APP_ORDER
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.report import format_table
from repro.experiments.runner import SimulationRunner, geometric_mean
from repro.machine.protection import ProtectionLevel
from repro.experiments.registry import register_figure


def run(
    scale: float = 1.0,
    apps: tuple[str, ...] = APP_ORDER,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    store=None,
) -> dict[str, tuple[float, float]]:
    """Returns {app: (header load ratio, header store ratio)} + "GMean"."""
    runner = runner or ParallelRunner(scale=scale, jobs=jobs, store=store)
    records = runner.run_specs(
        [
            RunSpec(app=app, protection=ProtectionLevel.COMMGUARD, mtbe=None)
            for app in apps
        ]
    )
    results: dict[str, tuple[float, float]] = {
        app: (record.header_load_ratio, record.header_store_ratio)
        for app, record in zip(apps, records)
    }
    results["GMean"] = (
        geometric_mean([v[0] for v in results.values()]),
        geometric_mean([v[1] for v in results.values()]),
    )
    return results


def main(scale: float = 1.0, jobs: int | None = None, store=None) -> str:
    results = run(scale=scale, jobs=jobs, store=store)
    rows = [
        [app, 100.0 * loads, 100.0 * stores]
        for app, (loads, stores) in results.items()
    ]
    text = "Figure 12: header traffic as % of all loads/stores (error-free run)\n"
    text += format_table(["app", "loads %", "stores %"], rows)
    text += "\n(paper: GMean < 0.2%; worst audiobeamformer 0.66% / 0.75%)"
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
            name="fig12.header_loads_gmean",
            figure="fig12",
            description="GMean header-load traffic under 0.2%",
            paper_value=0.002,
            unit="ratio",
            band=ToleranceBand(pass_within=0.0, warn_within=0.002),
            measure=Measurement("header_load_gmean"),
            comparison=Comparison.BELOW,
            source="Section 6.3 / Fig. 12 (GMean < 0.2%)",
        ),
        PaperTarget(
            name="fig12.header_stores_gmean",
            figure="fig12",
            description="GMean header-store traffic under 0.2%",
            paper_value=0.002,
            unit="ratio",
            band=ToleranceBand(pass_within=0.0, warn_within=0.002),
            measure=Measurement("header_store_gmean"),
            comparison=Comparison.BELOW,
            source="Section 6.3 / Fig. 12 (GMean < 0.2%)",
        ),
        PaperTarget(
            name="fig12.audiobeamformer_loads",
            figure="fig12",
            description="worst-case extra loads (audiobeamformer)",
            paper_value=0.0066,
            unit="ratio",
            band=ToleranceBand(pass_within=1.0, warn_within=3.0, relative=True),
            measure=Measurement("header_load_ratio", app="audiobeamformer"),
            source="Section 6.3 / Fig. 12 (0.66% extra loads)",
        ),
        PaperTarget(
            name="fig12.audiobeamformer_stores",
            figure="fig12",
            description="worst-case extra stores (audiobeamformer)",
            paper_value=0.0075,
            unit="ratio",
            band=ToleranceBand(pass_within=1.0, warn_within=3.0, relative=True),
            measure=Measurement("header_store_ratio", app="audiobeamformer"),
            source="Section 6.3 / Fig. 12 (0.75% extra stores)",
        ),
    )


register_figure(
    "fig12",
    module=__name__,
    description="header memory traffic",
    paper_section="Section 6.3 / Fig. 12",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
