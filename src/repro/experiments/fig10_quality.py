"""Figure 10: jpeg PSNR and mp3 SNR vs MTBE, with frame-size scaling.

Per app, the mean (and deviation) quality over seeds at each MTBE of the
quality ladder; mp3 additionally sweeps the 2x/4x/8x frame sizes of
Section 5.4 (larger frames -> fewer realignments but more data corrupted
per misalignment).  Paper anchors: jpeg holds 20 dB and mp3 7.6 dB at
MTBE = 512k (error-free baselines 35.6 dB and 9.4 dB).
"""

from __future__ import annotations

from repro.experiments.registry import register_figure


def paper_targets():
    from repro.experiments.fidelity import (
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="fig10.jpeg_quality_512k",
            figure="fig10",
            description="jpeg holds 20 dB at MTBE 512k",
            paper_value=20.0,
            unit="dB",
            band=ToleranceBand(pass_within=3.0, warn_within=6.0),
            measure=Measurement("mean_quality_db", app="jpeg", mtbe=512_000.0),
            source="Section 6.2 / Fig. 10a",
        ),
        PaperTarget(
            name="fig10.mp3_snr_512k",
            figure="fig10",
            description="mp3 holds 7.6 dB at MTBE 512k",
            paper_value=7.6,
            unit="dB",
            band=ToleranceBand(pass_within=3.0, warn_within=6.0),
            measure=Measurement("mean_quality_db", app="mp3", mtbe=512_000.0),
            source="Section 6.2 / Fig. 10b",
        ),
        PaperTarget(
            name="fig10.jpeg_baseline",
            figure="fig10",
            description="jpeg error-free baseline PSNR",
            paper_value=35.6,
            unit="dB",
            band=ToleranceBand(pass_within=5.0, warn_within=10.0),
            measure=Measurement("app_baseline_db", app="jpeg"),
            source="Section 6.2 / Fig. 10a (baseline)",
        ),
        PaperTarget(
            name="fig10.mp3_baseline",
            figure="fig10",
            description="mp3 error-free baseline SNR",
            paper_value=9.4,
            unit="dB",
            band=ToleranceBand(pass_within=3.0, warn_within=6.0),
            measure=Measurement("app_baseline_db", app="mp3"),
            source="Section 6.2 / Fig. 10b (baseline)",
        ),
    )


register_figure(
    "fig10",
    module=__name__,
    description="jpeg/mp3 quality vs MTBE",
    paper_section="Section 6.2 / Fig. 10",
)

