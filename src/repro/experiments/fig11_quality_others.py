"""Figure 11: output quality vs MTBE for the four direct-comparison apps.

audiobeamformer, channelvocoder, complex-fir and fft compare error-prone
output against the error-free run (error-free SNR is infinity; runs with no
unmasked error are capped at the conventional ceiling).  complex-fir also
sweeps the 2x/4x/8x frame sizes, as in the paper's Fig. 11c.  The trend
over the low end of the ladder is checked in
``tests/experiments/test_figures.py``.
"""

from __future__ import annotations

from repro.experiments.registry import register_figure


def paper_targets():
    """Fig. 11 reports curves, not single numbers; the checkable claim is
    that each DSP app recovers high output quality at the ladder's top
    (MTBE 8192k), where the paper's curves approach error-free."""
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    floors = {
        "audiobeamformer": 10.0,
        "channelvocoder": 15.0,
        "complex-fir": 20.0,
        "fft": 20.0,
    }
    return tuple(
        PaperTarget(
            name=f"fig11.{app.replace('-', '_')}_8192k",
            figure="fig11",
            description=f"{app} recovers at MTBE 8192k",
            paper_value=floor,
            unit="dB",
            band=ToleranceBand(pass_within=5.0, warn_within=10.0),
            measure=Measurement("mean_quality_db", app=app, mtbe=8_192_000.0),
            comparison=Comparison.ABOVE,
            source="Section 6.2 / Fig. 11 (curve shape)",
        )
        for app, floor in floors.items()
    )


register_figure(
    "fig11",
    module=__name__,
    description="4 DSP apps quality",
    paper_section="Section 6.2 / Fig. 11",
)

