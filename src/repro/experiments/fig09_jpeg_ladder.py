"""Figure 9: jpeg visual quality ladder at MTBE 128k/512k/2048k/8192k.

The paper shows decoded images with PSNR 14.7 / 18.6 / 28.6 / 35.6 dB,
reaching error-free quality at 8192k.  ``examples/jpeg_error_sweep.py``
writes the four decoded images as PPMs.
"""

from __future__ import annotations

from repro.experiments.registry import register_figure

PAPER_PSNR = {128_000: 14.7, 512_000: 18.6, 2_048_000: 28.6, 8_192_000: 35.6}


def paper_targets():
    """One MATCH target per rung of the paper's PSNR ladder, plus the
    ladder's shape: quality never drops as errors get rarer, reaches the
    error-free baseline at the top rung and sits well below it at the
    bottom one."""
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    rungs = tuple(
        PaperTarget(
            name=f"fig9.jpeg_psnr_{mtbe // 1000}k",
            figure="fig9",
            description=f"jpeg PSNR at MTBE {mtbe // 1000}k",
            paper_value=psnr,
            unit="dB",
            band=ToleranceBand(pass_within=3.0, warn_within=6.0),
            measure=Measurement("mean_quality_db", app="jpeg", mtbe=float(mtbe)),
            source="Section 6.2 / Fig. 9",
        )
        for mtbe, psnr in PAPER_PSNR.items()
    )
    steps = tuple(
        PaperTarget(
            name=f"fig9.jpeg_step_{mtbe // 1000}k",
            figure="fig9",
            description=f"jpeg PSNR does not drop from MTBE {mtbe // 4000}k "
            f"to {mtbe // 1000}k",
            paper_value=0.0,
            unit="dB",
            band=ToleranceBand(pass_within=0.0, warn_within=1.0),
            measure=Measurement("quality_step_db", app="jpeg", mtbe=float(mtbe)),
            comparison=Comparison.ABOVE,
            source="Section 6.2 / Fig. 9 (graceful degradation)",
        )
        for mtbe in tuple(PAPER_PSNR)[1:]
    )
    gaps = (
        PaperTarget(
            name="fig9.jpeg_gap_8192k",
            figure="fig9",
            description="jpeg within 1 dB of its error-free baseline at "
            "MTBE 8192k",
            paper_value=1.0,
            unit="dB",
            band=ToleranceBand(pass_within=0.0, warn_within=1.0),
            measure=Measurement("baseline_gap_db", app="jpeg", mtbe=8_192_000.0),
            comparison=Comparison.BELOW,
            source="Section 6.2 / Fig. 9 (error-free quality at 8192k)",
        ),
        PaperTarget(
            name="fig9.jpeg_gap_128k",
            figure="fig9",
            description="jpeg more than 5 dB below its error-free baseline "
            "at MTBE 128k",
            paper_value=5.0,
            unit="dB",
            band=ToleranceBand(pass_within=0.0, warn_within=2.0),
            measure=Measurement("baseline_gap_db", app="jpeg", mtbe=128_000.0),
            comparison=Comparison.ABOVE,
            source="Section 6.2 / Fig. 9 (degraded at 128k)",
        ),
    )
    return rungs + steps + gaps


register_figure(
    "fig9",
    module=__name__,
    description="jpeg PSNR ladder",
    paper_section="Section 6.2 / Fig. 9",
)

