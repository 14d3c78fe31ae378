"""Fault-injection outcome classification.

Architecture fault-injection studies classify run outcomes rather than just
averaging quality; the paper's narrative uses the same taxonomy implicitly
(crash/hang vs. garbled output vs. tolerable degradation vs. unaffected).
Every run of a campaign lands in one bucket:

===============  ==============================================================
``ERROR_FREE``   output bit-identical to the error-free run
``TOLERABLE``    quality within ``tolerable_db`` of the error-free baseline
``DEGRADED``     visibly degraded but above the catastrophic floor
``CATASTROPHIC`` quality at/below the floor, or the run hung / timed out
===============  ==============================================================

The graded target below is the fraction of runs that land error-free or
tolerable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.experiments.registry import register_figure
from repro.quality.metrics import QUALITY_CAP_DB


class Outcome(enum.Enum):
    ERROR_FREE = "error-free"
    TOLERABLE = "tolerable"
    DEGRADED = "degraded"
    CATASTROPHIC = "catastrophic"


@dataclass(frozen=True)
class OutcomeThresholds:
    """Quality thresholds (dB) for the outcome buckets.

    ``tolerable_db``: maximum drop below the error-free baseline that still
    counts as tolerable.  ``catastrophic_db``: absolute quality floor below
    which output is considered garbage.
    """

    tolerable_db: float = 5.0
    catastrophic_db: float = 5.0


def classify_outcome(
    quality_db: float,
    baseline_db: float,
    hung: bool,
    thresholds: OutcomeThresholds,
    quality_cap_db: float = QUALITY_CAP_DB,
) -> Outcome:
    """Bucket one run's result."""
    if hung:
        return Outcome.CATASTROPHIC
    baseline = min(baseline_db, quality_cap_db)
    if quality_db >= baseline:
        return Outcome.ERROR_FREE
    if quality_db >= baseline - thresholds.tolerable_db:
        return Outcome.TOLERABLE
    if quality_db <= thresholds.catastrophic_db:
        return Outcome.CATASTROPHIC
    return Outcome.DEGRADED


def paper_targets():
    from repro.experiments.fidelity import (
        Comparison,
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return (
        PaperTarget(
            name="campaign.jpeg_acceptable_2048k",
            figure="campaign",
            description="CommGuard keeps jpeg runs acceptable at MTBE 2048k",
            paper_value=1.0,
            unit="fraction",
            band=ToleranceBand(pass_within=0.34, warn_within=0.67),
            measure=Measurement(
                "acceptable_fraction", app="jpeg", mtbe=2_048_000.0
            ),
            comparison=Comparison.ABOVE,
            source="Section 6 narrative (tolerable-or-better outcomes)",
        ),
    )


register_figure(
    "campaign",
    module=__name__,
    description="fault-injection outcome campaign",
    paper_section="Section 6 methodology",
)

