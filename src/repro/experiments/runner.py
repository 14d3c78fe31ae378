"""Simulation runner: executes benchmark apps under experiment configs.

Caches built apps (codec encoding and graph construction are the expensive
parts) and packages each run's measurements into a flat
:class:`RunRecord` the paper targets and sweeps aggregate.

The runner executes frozen :class:`~repro.experiments.parallel.RunSpec`
descriptions (:meth:`run_spec` / :meth:`execute_spec`), the unit of work
of the parallel sweep engine: the engine holds one runner for its serial
path and every pool worker holds another.  One-off runs go through
:func:`repro.api.run`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.apps.base import BenchmarkApp
from repro.apps.registry import build_app
from repro.machine.protection import ProtectionLevel
from repro.machine.runstats import RunResult
from repro.machine.system import run_program


@dataclass(frozen=True, slots=True)
class RunRecord:
    """Flat measurements of one simulated run."""

    app: str
    protection: ProtectionLevel
    mtbe: float | None
    seed: int
    frame_scale: int
    quality_db: float
    data_loss_ratio: float
    pad_events: int
    discard_events: int
    padded_items: int
    discarded_items: int
    errors_injected: int
    timeouts: int
    committed_instructions: int
    execution_time: int
    header_load_ratio: float
    header_store_ratio: float
    subop_ratios: dict[str, float]
    hung: bool


class SimulationRunner:
    """Runs benchmark apps under experiment configurations, caching apps.

    The one executor: :meth:`run_spec` is where every entry point's run
    reaches :func:`~repro.machine.system.run_program` and becomes a
    :class:`RunRecord`.
    """

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale
        self._apps: dict[str, BenchmarkApp] = {}

    def app(self, name: str) -> BenchmarkApp:
        if name not in self._apps:
            self._apps[name] = build_app(name, scale=self.scale)
        return self._apps[name]

    def adopt_app(self, app: BenchmarkApp) -> BenchmarkApp:
        """Register a prebuilt app in the cache (its build scale must match
        this runner's, or worker processes would rebuild it differently)."""
        return self._apps.setdefault(app.name, app)

    def run_spec(self, spec, tracer=None, profiler=None) -> tuple[RunRecord, RunResult]:
        """Run one frozen :class:`~repro.experiments.parallel.RunSpec`;
        returns the flat record plus the raw result.

        *tracer* is anything :func:`~repro.observability.coerce_tracer`
        understands: given a JSONL path, a
        :class:`~repro.observability.JsonlTracer` streaming there is opened
        for the run and closed afterwards.  ``profiler`` optionally records
        the run's simulated-time timeline
        (:class:`~repro.observability.profile.SimProfiler`).
        """
        from repro.observability.tracer import coerce_tracer

        app = self.app(spec.app)
        tracer, owned = coerce_tracer(tracer)
        try:
            result = run_program(
                app.program,
                spec.protection,
                mtbe=spec.mtbe,
                seed=spec.seed,
                commguard_config=spec.commguard_config(),
                error_model=spec.error_model(),
                tracer=tracer,
                fault_model=spec.fault_model,
                profiler=profiler,
            )
        finally:
            if owned is not None:
                owned.close()
        stats = result.commguard_stats()
        load_ratio, store_ratio = result.header_memory_ratios()
        record = RunRecord(
            app=spec.app,
            protection=spec.protection,
            mtbe=None if spec.protection is ProtectionLevel.ERROR_FREE else spec.mtbe,
            seed=spec.seed,
            frame_scale=spec.frame_scale,
            quality_db=app.quality(result),
            data_loss_ratio=result.data_loss_ratio(),
            pad_events=stats.pad_events,
            discard_events=stats.discard_events,
            padded_items=stats.pads,
            discarded_items=stats.discarded_items,
            errors_injected=result.errors_injected,
            timeouts=stats.timeouts,
            committed_instructions=result.committed_instructions,
            execution_time=result.execution_time(),
            header_load_ratio=load_ratio,
            header_store_ratio=store_ratio,
            subop_ratios=result.subop_ratios(),
            hung=result.hung,
        )
        return record, result

    def execute_spec(self, spec, tracer=None) -> RunRecord:
        """Run one frozen spec, returning just the flat record."""
        return self.run_spec(spec, tracer=tracer)[0]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, tolerating zeros by epsilon-flooring (as overhead
    figures conventionally do).  Non-finite entries are skipped — a NaN
    (e.g. a confidence bound clamped against ``QUALITY_CAP_DB``) or an
    infinity must not poison a whole table cell.  An input with no finite
    values has no mean: returns ``nan`` rather than raising, so partial
    sweeps render as blanks."""
    floored = [max(v, 1e-12) for v in values if math.isfinite(v)]
    if not floored:
        return math.nan
    return math.exp(sum(math.log(v) for v in floored) / len(floored))
