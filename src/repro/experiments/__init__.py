"""Experiments: the paper's figures and tables as graded targets.

Each figure module (one per table/figure of the paper) declares the
values the paper reports as :class:`PaperTarget`\\ s in ``paper_targets()``
and registers itself in the :mod:`~repro.experiments.registry`.
:func:`run_paper` executes every target's runs once, as one resumable
:class:`RunStore` campaign through the :class:`ParallelRunner`, and
grades each against its tolerance band; ``repro figure NAME`` runs the
same pipeline on one figure.  The DESIGN.md experiment index maps each
paper artifact to its module here and to its target prefix and tests.

Three scale tiers (:data:`~repro.experiments.fidelity.SCALE_TIERS`)
shrink the inputs and seed counts so the whole reproduction stays
laptop-friendly; EXPERIMENTS.md records paper-vs-measured values per
tier.
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

# Importing the figure modules is what populates the figure registry; they
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
