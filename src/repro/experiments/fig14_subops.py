"""Figure 14: CommGuard hardware suboperations vs committed instructions.

Per app, the error-free CommGuard run's suboperation counts — grouped as
FSM/Counter, ECC and Header-Bit per Table 3's classes — normalized to
committed processor instructions, plus the geometric mean and total.
Paper anchors: GMean total ~2%, worst case audiobeamformer 4.9%, with the
header-bit checks the most frequent class.
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
        PaperTarget(
            name="fig14.subops_every_app_25pct",
            figure="fig14",
            description="every app's suboperation ratio under 25%",
            paper_value=0.25,
            unit="fraction",
            band=ToleranceBand(pass_within=0.0, warn_within=0.05),
            measure=Measurement("subop_total_max"),
            comparison=Comparison.BELOW,
            source="Section 6.5 / Fig. 14 (every app small)",
        ),
        PaperTarget(
            name="fig14.total_minus_header_bit",
            figure="fig14",
            description="every app's total covers its header-bit checks",
            paper_value=0.0,
            unit="fraction",
            band=ToleranceBand(pass_within=0.0, warn_within=0.01),
            measure=Measurement("subop_non_header_bit_min"),
            comparison=Comparison.ABOVE,
            source="Section 6.5 / Fig. 14 (stacked classes)",
        ),
        *(
            PaperTarget(
                name=f"fig14.{app}_header_bit_gt_ecc",
                figure="fig14",
                description=f"header-bit checks outnumber ECC work in {app}",
                paper_value=0.0,
                unit="fraction",
                band=ToleranceBand(pass_within=0.0, warn_within=0.01),
                measure=Measurement("subop_header_bit_over_ecc", app=app),
                comparison=Comparison.ABOVE,
                source="Section 6.5 / Fig. 14 (header-bit most frequent)",
            )
            for app in ("jpeg", "fft")
        ),
    )


register_figure(
    "fig14",
    module=__name__,
    description="suboperation ratios",
    paper_section="Section 6.5 / Fig. 14",
)

