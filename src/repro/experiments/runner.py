"""Simulation runner: executes benchmark apps under experiment configs.

Caches built apps (codec encoding and graph construction are the expensive
parts) and packages each run's measurements into a flat
:class:`RunRecord` the paper targets and sweeps aggregate.

The runner executes frozen :class:`~repro.experiments.parallel.RunSpec`
descriptions (:meth:`run_spec` / :meth:`execute_spec` / :meth:`run_specs`),
the unit of work of the parallel sweep engine, which overrides
:meth:`run_specs` to fan specs out over worker processes and a result
store.  One-off runs go through :func:`repro.api.run`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.apps.base import BenchmarkApp
from repro.apps.registry import build_app
from repro.core.config import CommGuardConfig
from repro.machine.errors import ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.runstats import RunResult
from repro.machine.system import SystemConfig, run_program
from repro.quality.metrics import QUALITY_CAP_DB


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
    """Runs benchmark apps under experiment configurations, caching apps."""

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

    def _execute(
        self,
        app_name: str,
        protection: ProtectionLevel = ProtectionLevel.COMMGUARD,
        mtbe: float | None = None,
        seed: int = 0,
        frame_scale: int = 1,
        commguard_config: CommGuardConfig | None = None,
        error_model: ErrorModel | None = None,
        tracer=None,
        fault_model: str | None = None,
        exec_mode: str | None = None,
        profiler=None,
    ) -> tuple[RunRecord, RunResult]:
        """Run once; returns the flat record plus the raw result."""
        app = self.app(app_name)
        config = commguard_config or CommGuardConfig(frame_scale=frame_scale)
        system_config = (
            None if exec_mode is None else SystemConfig(exec_mode=exec_mode)
        )
        result = run_program(
            app.program,
            protection,
            mtbe=mtbe,
            seed=seed,
            commguard_config=config,
            system_config=system_config,
            error_model=error_model,
            tracer=tracer,
            fault_model=fault_model,
            profiler=profiler,
        )
        quality = app.quality(result)
        stats = result.commguard_stats()
        load_ratio, store_ratio = result.header_memory_ratios()
        record = RunRecord(
            app=app_name,
            protection=protection,
            mtbe=None if protection is ProtectionLevel.ERROR_FREE else mtbe,
            seed=seed,
            frame_scale=config.frame_scale,
            quality_db=quality,
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

    def run_spec(self, spec, tracer=None, profiler=None) -> tuple[RunRecord, RunResult]:
        """Run one frozen :class:`~repro.experiments.parallel.RunSpec`.

        When *tracer* is ``None`` and the spec carries a ``trace`` path, a
        :class:`~repro.observability.JsonlTracer` streaming there is opened
        for the run and closed afterwards.  ``profiler`` optionally records
        the run's simulated-time timeline
        (:class:`~repro.observability.profile.SimProfiler`).
        """
        from repro.observability.tracer import coerce_tracer

        owned = None
        if tracer is None:
            tracer, owned = coerce_tracer(getattr(spec, "trace", None))
        try:
            return self._execute(
                spec.app,
                spec.protection,
                mtbe=spec.mtbe,
                seed=spec.seed,
                frame_scale=spec.frame_scale,
                commguard_config=spec.commguard_config(),
                error_model=spec.error_model(),
                tracer=tracer,
                fault_model=getattr(spec, "fault_model", None),
                exec_mode=getattr(spec, "exec_mode", None),
                profiler=profiler,
            )
        finally:
            if owned is not None:
                owned.close()

    def execute_spec(self, spec) -> RunRecord:
        """Run one frozen spec, returning just the flat record."""
        return self.run_spec(spec)[0]

    def run_specs(self, specs: Sequence) -> list[RunRecord]:
        """Run specs in order, serially and in-process.

        :class:`~repro.experiments.parallel.ParallelRunner` overrides this
        with process fan-out and a result store; the base implementation is
        the exact single-process path.
        """
        return [self.execute_spec(spec) for spec in specs]

    def quality_stats(
        self,
        app_name: str,
        mtbe: float,
        seeds: list[int],
        protection: ProtectionLevel = ProtectionLevel.COMMGUARD,
        frame_scale: int = 1,
        quality_cap_db: float = QUALITY_CAP_DB,
    ) -> tuple[float, float]:
        """Mean and standard deviation of quality over *seeds* (dB).

        Runs in which no unmasked error reached live state reproduce the
        error-free output exactly (quality = inf); they are capped at
        ``quality_cap_db``, the conventional "error-free" ceiling.
        """
        from repro.experiments.parallel import RunSpec

        records = [
            self.execute_spec(
                RunSpec(
                    app=app_name,
                    protection=protection,
                    mtbe=mtbe,
                    seed=seed,
                    frame_scale=frame_scale,
                )
            )
            for seed in seeds
        ]
        return mean_stdev([min(r.quality_db, quality_cap_db) for r in records])


def mean_stdev(values: Sequence[float]) -> tuple[float, float]:
    """Population mean and standard deviation of a non-empty sequence."""
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(variance)


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
