"""Figure 7: an example jpeg run with CommGuard at MTBE = 512k.

The paper decodes its full image with 16 padding/discard operations and a
PSNR of 20.2 dB, annotating the 8-pixel-high output rows where CommGuard
realigned.  The PSNR is graded here; ``repro run jpeg --mtbe 512k``
prints one run's padded/discarded item counts.
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
            name="fig7.jpeg_psnr_512k",
            figure="fig7",
            description="example jpeg run with CommGuard at MTBE 512k",
            paper_value=20.2,
            unit="dB",
            band=ToleranceBand(pass_within=4.0, warn_within=8.0),
            measure=Measurement("mean_quality_db", app="jpeg", mtbe=512_000.0),
            source="Section 6 / Fig. 7 (PSNR 20.2 dB on the paper's image)",
        ),
    )


register_figure(
    "fig7",
    module=__name__,
    description="example jpeg run, pad/discards",
    paper_section="Section 6 / Fig. 7",
)

