"""Outcome classification and the paper's campaign-form claims.

Runs are bucketed into error-free / tolerable / degraded / catastrophic
outcomes; ``campaign.paper_targets()`` grades the acceptable fraction the
paper grid holds, and the claims below need runs outside it.
"""

import pytest

from repro.experiments.campaign import Outcome, OutcomeThresholds, classify_outcome
from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.machine.protection import ProtectionLevel
from repro.quality.metrics import QUALITY_CAP_DB

T = OutcomeThresholds(tolerable_db=5.0, catastrophic_db=5.0)


class TestClassification:
    def test_hung_is_catastrophic(self):
        assert classify_outcome(40.0, 30.0, hung=True, thresholds=T) is Outcome.CATASTROPHIC

    def test_at_baseline_is_error_free(self):
        assert classify_outcome(30.0, 30.0, False, T) is Outcome.ERROR_FREE

    def test_infinite_quality_capped(self):
        assert (
            classify_outcome(float("inf"), float("inf"), False, T)
            is Outcome.ERROR_FREE
        )

    def test_small_drop_tolerable(self):
        assert classify_outcome(26.0, 30.0, False, T) is Outcome.TOLERABLE

    def test_large_drop_degraded(self):
        assert classify_outcome(15.0, 30.0, False, T) is Outcome.DEGRADED

    def test_floor_catastrophic(self):
        assert classify_outcome(3.0, 30.0, False, T) is Outcome.CATASTROPHIC

    def test_boundaries(self):
        assert classify_outcome(25.0, 30.0, False, T) is Outcome.TOLERABLE
        assert classify_outcome(5.0, 30.0, False, T) is Outcome.CATASTROPHIC

    def test_hung_beats_perfect_quality(self):
        # A hung run is catastrophic no matter what the quality metric says.
        assert (
            classify_outcome(float("inf"), 30.0, hung=True, thresholds=T)
            is Outcome.CATASTROPHIC
        )

    def test_just_above_catastrophic_floor(self):
        assert classify_outcome(5.001, 30.0, False, T) is Outcome.DEGRADED

    def test_quality_above_baseline_is_error_free(self):
        assert classify_outcome(35.0, 30.0, False, T) is Outcome.ERROR_FREE


def mean_capped_quality(records) -> float:
    return sum(min(r.quality_db, QUALITY_CAP_DB) for r in records) / len(records)


def outcomes(runner, records) -> list[Outcome]:
    """Classify records the way the campaign target does."""
    baseline = min(runner.app(records[0].app).baseline_quality(), QUALITY_CAP_DB)
    return [
        classify_outcome(
            min(r.quality_db, QUALITY_CAP_DB), baseline, r.hung, OutcomeThresholds()
        )
        for r in records
    ]


class TestCampaignRuns:
    @pytest.fixture(scope="class")
    def jpeg_300k(self):
        """jpeg at 1x, MTBE 300k, seeds 0-4, under CommGuard and under the
        reliable-queue baseline: ``{protection: (runner, records)}``."""
        runner = ParallelRunner(scale=1.0, jobs=2)
        levels = (ProtectionLevel.COMMGUARD, ProtectionLevel.PPU_RELIABLE_QUEUE)
        records = runner.run_specs(
            [
                RunSpec(app="jpeg", protection=level, mtbe=300_000, seed=seed)
                for level in levels
                for seed in range(5)
            ]
        )
        return {
            level: (runner, records[5 * i : 5 * i + 5])
            for i, level in enumerate(levels)
        }

    def test_rare_errors_mostly_error_free(self):
        runner = ParallelRunner(scale=0.1, jobs=1)
        records = runner.run_specs(
            [RunSpec(app="fft", mtbe=1e9, seed=seed) for seed in range(3)]
        )
        assert outcomes(runner, records) == [Outcome.ERROR_FREE] * 3

    def test_commguard_acceptable_fraction_dominates(self, jpeg_300k):
        """At a high error rate on jpeg, CommGuard's acceptable fraction
        must beat the unprotected baselines' (the paper's core claim in
        campaign form)."""
        runner, guarded = jpeg_300k[ProtectionLevel.COMMGUARD]
        _, baseline = jpeg_300k[ProtectionLevel.PPU_RELIABLE_QUEUE]
        guarded, baseline = guarded[:4], baseline[:4]
        tolerated = (Outcome.ERROR_FREE, Outcome.TOLERABLE)
        guarded_ok = sum(
            o in (*tolerated, Outcome.DEGRADED) for o in outcomes(runner, guarded)
        )
        baseline_ok = sum(o in tolerated for o in outcomes(runner, baseline))
        assert guarded_ok >= baseline_ok
        assert mean_capped_quality(guarded) > mean_capped_quality(baseline)

    def test_commguard_beats_reliable_queue_at_300k(self, jpeg_300k):
        """Five seeds each: CommGuard's mean quality is higher and its
        catastrophic fraction no larger."""
        runner, guarded = jpeg_300k[ProtectionLevel.COMMGUARD]
        _, baseline = jpeg_300k[ProtectionLevel.PPU_RELIABLE_QUEUE]
        assert mean_capped_quality(guarded) > mean_capped_quality(baseline)
        assert outcomes(runner, guarded).count(Outcome.CATASTROPHIC) <= outcomes(
            runner, baseline
        ).count(Outcome.CATASTROPHIC)

