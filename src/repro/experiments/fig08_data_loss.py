"""Figure 8: ratio of lost (padded + discarded) data to accepted data.

Per app and MTBE, the mean over seeds of
``(padded items + discarded items) / accepted items`` — the paper plots
this log-scale from 1e-8 to 1e-1 and highlights that loss stays below 0.2%
even at extreme error rates, with jpeg losing the most because it has the
lowest frame/item ratio.  The per-app bound and trend over the MTBE
ladder are checked in ``tests/experiments/test_figures.py``.
"""

from __future__ import annotations

from repro.experiments.registry import register_figure


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

