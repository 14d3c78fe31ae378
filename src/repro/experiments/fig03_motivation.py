"""Figure 3: jpeg output under four protection mechanisms (MTBE = 1M).

The paper shows four decoded images: error-free cores (3a), error-prone PPU
cores with the plain software queue (3b), PPU cores with a fully-reliable
queue (3c), and PPU cores with CommGuard (3d).  The expected shape is
3a = lossy baseline, 3b and 3c degraded far below it (QME corruption and
permanent misalignment respectively), 3d close to the baseline.  The
four-level ordering at a lower MTBE is checked in
``tests/experiments/test_figures.py``.
"""

from __future__ import annotations

from repro.experiments.registry import register_figure
from repro.machine.protection import ProtectionLevel


def paper_targets():
    """Fig. 3's qualitative claims, quantified at its MTBE-1M setting.

    With the calibrated (mostly-masked) error mix CommGuard tracks the
    baseline (3d).  The 3b/3c contrast — only CommGuard repairs
    control-flow misalignment, a reliable queue does not — is measured as
    quality *gain* over the plain software queue under control-only
    errors, which stays checkable at every scale tier (absolute
    degradation depends on run length, the gain does not)."""
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    mtbe = 1_000_000.0
    control_only = dict(p_masked=0.0, p_data=0.0, p_control=1.0, p_address=0.0)
    return (
        PaperTarget(
            name="fig3.commguard_1m",
            figure="fig3",
            description="jpeg + CommGuard near the lossy baseline (3d)",
            paper_value=30.0,
            unit="dB",
            band=ToleranceBand(pass_within=5.0, warn_within=12.0),
            measure=Measurement("mean_quality_db", app="jpeg", mtbe=mtbe),
            comparison=Comparison.ABOVE,
            source="Fig. 3d",
        ),
        PaperTarget(
            name="fig3.commguard_misalignment_gain",
            figure="fig3",
            description="CommGuard recovers quality the software queue "
            "loses to misalignment (3d vs 3b)",
            paper_value=3.0,
            unit="dB",
            band=ToleranceBand(pass_within=2.0, warn_within=3.0),
            measure=Measurement(
                "protection_gain_db", app="jpeg", mtbe=mtbe, **control_only
            ),
            comparison=Comparison.ABOVE,
            source="Fig. 3b vs 3d",
        ),
        PaperTarget(
            name="fig3.reliable_queue_no_gain",
            figure="fig3",
            description="a reliable queue does not repair misalignment "
            "(3c tracks 3b)",
            paper_value=0.0,
            unit="dB",
            band=ToleranceBand(pass_within=1.0, warn_within=2.0),
            measure=Measurement(
                "protection_gain_db",
                app="jpeg",
                protection=ProtectionLevel.PPU_RELIABLE_QUEUE,
                mtbe=mtbe,
                **control_only,
            ),
            comparison=Comparison.BELOW,
            source="Fig. 3c vs 3b",
        ),
    )


register_figure(
    "fig3",
    module=__name__,
    description="jpeg under 4 protection levels",
    paper_section="Section 2 / Fig. 3",
)

