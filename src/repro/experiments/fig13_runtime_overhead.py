"""Figure 13: execution-time overhead of CommGuard, varying frame sizes.

The paper measures real hardware with lfence-serialized frame boundaries;
our simulator charges the equivalent costs — frame-boundary pipeline stalls
plus header pushes/pops — into the cycle estimate (DESIGN.md §3).  Overhead
is (guarded cycles - baseline cycles) / baseline cycles for error-free
runs, per app, plus the geometric mean.  Paper anchors: mean ~1%, worst
(audiobeamformer, complex-fir) < 4%, decreasing slightly with larger
frames (checked in ``tests/experiments/test_figures.py``).
"""

from __future__ import annotations

from repro.experiments.registry import register_figure


def paper_targets():
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="fig13.overhead_gmean",
            figure="fig13",
            description="GMean execution-time overhead ~1%",
            paper_value=0.01,
            unit="fraction",
            band=ToleranceBand(pass_within=0.01, warn_within=0.03),
            measure=Measurement("runtime_overhead_gmean"),
            source="Section 6.4 / Fig. 13 (mean ~1%)",
        ),
        PaperTarget(
            name="fig13.overhead_worst_case",
            figure="fig13",
            description="worst-case overhead stays under 4%",
            paper_value=0.04,
            unit="fraction",
            band=ToleranceBand(pass_within=0.0, warn_within=0.02),
            measure=Measurement("runtime_overhead_max"),
            comparison=Comparison.BELOW,
            source="Section 6.4 / Fig. 13 (worst < 4%)",
        ),
        PaperTarget(
            name="fig13.overhead_every_app_15pct",
            figure="fig13",
            description="every app's 1x-frame overhead under 15%",
            paper_value=0.15,
            unit="fraction",
            band=ToleranceBand(pass_within=0.0, warn_within=0.05),
            measure=Measurement("runtime_overhead_max"),
            comparison=Comparison.BELOW,
            source="Section 6.4 / Fig. 13 (every app small)",
        ),
    )


register_figure(
    "fig13",
    module=__name__,
    description="runtime overhead",
    paper_section="Section 6.4 / Fig. 13",
)

