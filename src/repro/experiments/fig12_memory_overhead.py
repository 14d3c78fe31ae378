"""Figure 12: extra memory events due to frame headers.

Per app, the ratio of header loads/stores to all processor loads/stores in
an error-free CommGuard run (deterministic; no seeds needed), plus the
geometric mean.  Paper anchors: geometric mean below 0.2%; worst case
audiobeamformer with 0.66% extra loads and 0.75% extra stores (its frames
are a single item).
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
        PaperTarget(
            name="fig12.header_loads_max",
            figure="fig12",
            description="every app's header-load traffic under 5%",
            paper_value=0.05,
            unit="ratio",
            band=ToleranceBand(pass_within=0.0, warn_within=0.05),
            measure=Measurement("header_load_max"),
            comparison=Comparison.BELOW,
            source="Section 6.3 / Fig. 12 (every app small)",
        ),
        PaperTarget(
            name="fig12.header_stores_max",
            figure="fig12",
            description="every app's header-store traffic under 5%",
            paper_value=0.05,
            unit="ratio",
            band=ToleranceBand(pass_within=0.0, warn_within=0.05),
            measure=Measurement("header_store_max"),
            comparison=Comparison.BELOW,
            source="Section 6.3 / Fig. 12 (every app small)",
        ),
        PaperTarget(
            name="fig12.audiobeamformer_lead",
            figure="fig12",
            description="audiobeamformer has the most header loads (its "
            "frames are one item)",
            paper_value=0.0,
            unit="ratio",
            band=ToleranceBand(pass_within=0.0, warn_within=0.002),
            measure=Measurement("header_load_lead", app="audiobeamformer"),
            comparison=Comparison.ABOVE,
            source="Section 6.3 / Fig. 12 (worst case audiobeamformer)",
        ),
    )


register_figure(
    "fig12",
    module=__name__,
    description="header memory traffic",
    paper_section="Section 6.3 / Fig. 12",
)

