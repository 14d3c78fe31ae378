"""Figure 9: jpeg visual quality ladder at MTBE 128k/512k/2048k/8192k.

The paper shows decoded images with PSNR 14.7 / 18.6 / 28.6 / 35.6 dB,
reaching error-free quality at 8192k.  We report PSNR per point (and can
dump the decoded images as PPMs).

The ladder x seed grid fans out through the parallel engine; dumping PPMs
needs the raw run output, so that path executes in-process.
"""

from __future__ import annotations

import os

from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.experiments.plotting import quality_chart
from repro.experiments.report import db_or_errorfree, format_table
from repro.experiments.runner import SimulationRunner
from repro.experiments.sweeps import seed_list
from repro.quality.images import write_ppm
from repro.experiments.registry import register_figure

LADDER = (128_000, 512_000, 2_048_000, 8_192_000)
PAPER_PSNR = {128_000: 14.7, 512_000: 18.6, 2_048_000: 28.6, 8_192_000: 35.6}


def run(
    scale: float = 2.0,
    n_seeds: int = 3,
    ladder: tuple[int, ...] = LADDER,
    dump_dir: str | None = None,
    runner: SimulationRunner | None = None,
    jobs: int | None = None,
    store=None,
) -> dict[int, float]:
    """Returns {mtbe: mean PSNR (dB, capped at the error-free baseline)}."""
    runner = runner or ParallelRunner(scale=scale, jobs=jobs, store=store)
    baseline = runner.app("jpeg").baseline_quality()
    if dump_dir is not None:
        return _run_with_dump(n_seeds, ladder, dump_dir, runner, baseline)
    seeds = seed_list(n_seeds)
    records = runner.run_specs(
        [RunSpec(app="jpeg", mtbe=mtbe, seed=seed) for mtbe in ladder for seed in seeds]
    )
    results = {}
    for index, mtbe in enumerate(ladder):
        chunk = records[index * n_seeds : (index + 1) * n_seeds]
        values = [min(record.quality_db, baseline) for record in chunk]
        results[mtbe] = sum(values) / len(values)
    return results


def _run_with_dump(
    n_seeds: int,
    ladder: tuple[int, ...],
    dump_dir: str,
    runner: SimulationRunner,
    baseline: float,
) -> dict[int, float]:
    app = runner.app("jpeg")
    results = {}
    for mtbe in ladder:
        values = []
        for seed in seed_list(n_seeds):
            record, result = runner.run_spec(RunSpec(app="jpeg", mtbe=mtbe, seed=seed))
            values.append(min(record.quality_db, baseline))
            if seed == 0:
                write_ppm(
                    os.path.join(dump_dir, f"fig9_mtbe{mtbe // 1000}k.ppm"),
                    app.output_signal(result).astype("uint8"),
                )
        results[mtbe] = sum(values) / len(values)
    return results


def main(
    scale: float = 2.0,
    n_seeds: int = 3,
    dump_dir: str | None = None,
    jobs: int | None = None,
    store=None,
) -> str:
    runner = ParallelRunner(scale=scale, jobs=jobs, store=store)
    results = run(n_seeds=n_seeds, dump_dir=dump_dir, runner=runner)
    baseline = runner.app("jpeg").baseline_quality()
    rows = [
        [f"{m // 1000}k", db_or_errorfree(v, cap=baseline), PAPER_PSNR.get(m, "-")]
        for m, v in results.items()
    ]
    text = (
        f"Figure 9: jpeg PSNR ladder (error-free baseline {baseline:.1f} dB; "
        "paper baseline 35.6 dB)\n"
    )
    text += format_table(["MTBE", "measured PSNR", "paper PSNR (dB)"], rows)
    text += "\n\n" + quality_chart(
        {"jpeg (measured)": results, "jpeg (paper)": PAPER_PSNR},
        y_label="PSNR (dB)",
        cap=baseline,
    )
    return text


def paper_targets():
    """One MATCH target per rung of the paper's PSNR ladder."""
    from repro.experiments.fidelity import (
        Measurement,
        PaperTarget,
        ToleranceBand,
    )

    return tuple(
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


register_figure(
    "fig9",
    module=__name__,
    description="jpeg PSNR ladder",
    paper_section="Section 6.2 / Fig. 9",
)


if __name__ == "__main__":  # pragma: no cover
    print(main())
