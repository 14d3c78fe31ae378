"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes a ``run(...)`` function returning structured results
and a ``main()`` that prints the same rows/series the paper reports, and
registers itself in the :mod:`~repro.experiments.registry` — the figure
registry the CLI derives its dispatch and listings from.  The DESIGN.md
experiment index maps each paper artifact to its module here and to the
pytest-benchmark target that regenerates it.

All harnesses accept a ``scale`` parameter shrinking the benchmark inputs
(and a ``seeds`` count) so the full suite stays laptop-friendly;
EXPERIMENTS.md records paper-vs-measured values at the recorded scales.
"""

from repro.experiments.options import EngineOptions
from repro.experiments.parallel import (
    FailureRecord,
    ParallelRunner,
    RunSpec,
    RunTimeoutError,
    SweepRunError,
    SweepStats,
)
from repro.experiments.registry import (
    FigureArtifact,
    FigureSpec,
    figure_names,
    figure_specs,
    register_figure,
    resolve_figure,
)
from repro.experiments.runner import RunRecord, SimulationRunner
from repro.experiments.fidelity import (
    Comparison,
    PaperTarget,
    ScaleTier,
    TargetResult,
    ToleranceBand,
    Verdict,
    collect_targets,
    resolve_tier,
)
from repro.experiments.paper import (
    PaperRun,
    ReproductionReport,
    run_paper,
    write_bundle,
)
from repro.experiments.store import (
    CampaignStatus,
    RunStore,
    StoredRun,
    derive_campaign_id,
)
from repro.experiments.sweeps import (
    FRAME_SCALES,
    MTBE_LADDER_LOSS,
    MTBE_LADDER_QUALITY,
    PAPER_SEEDS,
)

# Importing the harness modules is what populates the figure registry; they
# must come after the engine imports above (they build on them), and their
# order here is the registry's display order.
from repro.experiments import (  # noqa: E402  isort: skip
    fig03_motivation,
    fig07_example,
    fig08_data_loss,
    fig09_jpeg_ladder,
    fig10_quality,
    fig11_quality_others,
    fig12_memory_overhead,
    fig13_runtime_overhead,
    fig14_subops,
    tables,
    ablations,
    campaign,
)

__all__ = [
    "FRAME_SCALES",
    "MTBE_LADDER_LOSS",
    "MTBE_LADDER_QUALITY",
    "PAPER_SEEDS",
    "CampaignStatus",
    "Comparison",
    "EngineOptions",
    "FailureRecord",
    "FigureArtifact",
    "FigureSpec",
    "PaperRun",
    "PaperTarget",
    "ParallelRunner",
    "ReproductionReport",
    "RunRecord",
    "RunSpec",
    "RunStore",
    "RunTimeoutError",
    "ScaleTier",
    "SimulationRunner",
    "StoredRun",
    "SweepRunError",
    "SweepStats",
    "TargetResult",
    "ToleranceBand",
    "Verdict",
    "collect_targets",
    "derive_campaign_id",
    "figure_names",
    "figure_specs",
    "register_figure",
    "resolve_figure",
    "resolve_tier",
    "run_paper",
    "write_bundle",
]
