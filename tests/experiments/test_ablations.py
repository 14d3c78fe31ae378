"""Ablations on CommGuard's design choices, checked over RunSpecs.

They isolate the mechanism: which error class CommGuard repairs, how
quality follows the masking calibration, and the QM working-set size
trade-off.  ``ablations.paper_targets()`` grades the claims the paper
grid holds; these need runs outside it.
"""

from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.machine.protection import ProtectionLevel
from repro.quality.metrics import QUALITY_CAP_DB

CLASS_MODELS = {
    "data-only": dict(p_data=1.0, p_control=0.0, p_address=0.0),
    "control-only": dict(p_data=0.0, p_control=1.0, p_address=0.0),
    "address-only": dict(p_data=0.0, p_control=0.0, p_address=1.0),
}


def mean_capped_quality(records) -> float:
    return sum(min(r.quality_db, QUALITY_CAP_DB) for r in records) / len(records)


def ecc_ratios(sizes, scale) -> dict[int, float]:
    """ECC suboperations per committed instruction vs working-set size
    (error-free jpeg under CommGuard)."""
    records = ParallelRunner(scale=scale, jobs=2).run_specs(
        [
            RunSpec(
                app="jpeg",
                protection=ProtectionLevel.COMMGUARD,
                mtbe=None,
                workset_units=units,
            )
            for units in sizes
        ]
    )
    return {units: r.subop_ratios["ecc"] for units, r in zip(sizes, records)}


class TestErrorClassDecomposition:
    def test_commguard_repairs_control_errors_at_400k(self):
        """jpeg at 1x, MTBE 400k, unmasked single-class errors, 2 seeds."""
        cells = [
            ("control-only", ProtectionLevel.COMMGUARD),
            ("control-only", ProtectionLevel.PPU_RELIABLE_QUEUE),
            ("data-only", ProtectionLevel.COMMGUARD),
            ("address-only", ProtectionLevel.COMMGUARD),
            ("address-only", ProtectionLevel.PPU_ONLY),
        ]
        records = ParallelRunner(scale=1.0, jobs=2).run_specs(
            [
                RunSpec(
                    app="jpeg",
                    protection=level,
                    mtbe=400_000,
                    seed=seed,
                    p_masked=0.0,
                    **CLASS_MODELS[error_class],
                )
                for error_class, level in cells
                for seed in range(2)
            ]
        )
        table = {
            cell: mean_capped_quality(records[2 * i : 2 * i + 2])
            for i, cell in enumerate(cells)
        }
        # Control-flow errors are the class only CommGuard repairs.
        assert (
            table["control-only", ProtectionLevel.COMMGUARD]
            > table["control-only", ProtectionLevel.PPU_RELIABLE_QUEUE]
        )
        # Data errors are tolerable everywhere: no protection gap demanded.
        assert table["data-only", ProtectionLevel.COMMGUARD] > 15.0
        # Address errors wreck the corruptible software queue the most.
        assert (
            table["address-only", ProtectionLevel.COMMGUARD]
            >= table["address-only", ProtectionLevel.PPU_ONLY] - 0.5
        )


class TestMaskingSensitivity:
    def test_more_masking_no_worse_at_256k(self):
        """jpeg + CommGuard at 1x, MTBE 256k, 2 seeds: masking 95% of the
        errors is no worse than masking none."""
        rates = (0.0, 0.95)
        records = ParallelRunner(scale=1.0, jobs=2).run_specs(
            [
                RunSpec(
                    app="jpeg",
                    protection=ProtectionLevel.COMMGUARD,
                    mtbe=256_000,
                    seed=seed,
                    p_masked=p_masked,
                )
                for p_masked in rates
                for seed in range(2)
            ]
        )
        unmasked, masked = mean_capped_quality(records[:2]), mean_capped_quality(
            records[2:]
        )
        assert unmasked <= masked + 0.5

    def test_full_masking_equals_error_free(self):
        """With p_masked near 1 and rare errors, quality hits the cap."""
        runner = ParallelRunner(scale=0.1, jobs=1)
        (record,) = runner.run_specs(
            [RunSpec(app="jpeg", mtbe=1e9, seed=0, p_masked=0.99)]
        )
        baseline = runner.executor.app("jpeg").baseline_quality()
        assert min(record.quality_db, QUALITY_CAP_DB) >= baseline - 0.1


class TestWorksetSizing:
    def test_bigger_worksets_amortize_ecc(self):
        """At 0.25x, a 2048-unit working set needs no more shared-pointer
        ECC work per instruction than an 8-unit one."""
        results = ecc_ratios((8, 2048), scale=0.25)
        assert results[2048] <= results[8]

    def test_overhead_monotone_down(self):
        results = ecc_ratios((4, 64, 1024), scale=0.1)
        assert results[1024] <= results[64] <= results[4]

    def test_ratios_positive(self):
        results = ecc_ratios((16,), scale=0.1)
        assert results[16] > 0
