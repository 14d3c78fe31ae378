"""Simulation runner: executes benchmark apps under experiment configs.

Caches built apps (codec encoding and graph construction are the expensive
parts) and each protection level's quiet run (a run no unmasked error
reached, which a masked run replays instead of simulating) with its record,
and packages each run's measurements into a flat :class:`RunRecord` the
paper targets and sweeps aggregate.

The runner executes frozen :class:`~repro.experiments.parallel.RunSpec`
descriptions (:meth:`run_spec` / :meth:`execute_spec`), the unit of work
of the parallel sweep engine: the engine holds one runner for its serial
path and every pool worker holds another.  One-off runs go through
:func:`repro.api.run`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.apps.base import BenchmarkApp
from repro.apps.registry import build_app
from repro.machine.faults import default_error_model
from repro.machine.protection import ProtectionLevel
from repro.machine.runstats import RunResult
from repro.machine.system import MulticoreSystem


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
    reaches :class:`~repro.machine.system.MulticoreSystem` and becomes a
    :class:`RunRecord`.
    """

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale
        self._apps: dict[str, BenchmarkApp] = {}
        #: Error-free outputs adopted before their app was built here.
        self._references: dict[str, np.ndarray] = {}
        #: (app, protection, CommGuard config) -> that level's quiet run,
        #: and the record it produced.
        self._quiet_runs: dict[tuple, RunResult] = {}
        self._quiet_records: dict[tuple, RunRecord] = {}

    def app(self, name: str) -> BenchmarkApp:
        if name not in self._apps:
            app = build_app(name, scale=self.scale)
            if name in self._references:
                app.adopt_error_free_output(self._references.pop(name))
            self._apps[name] = app
        return self._apps[name]

    def adopt_app(self, app: BenchmarkApp) -> BenchmarkApp:
        """Register a prebuilt app in the cache (its build scale must match
        this runner's, or worker processes would rebuild it differently)."""
        return self._apps.setdefault(app.name, app)

    def adopt_reference(self, name: str, output: np.ndarray) -> None:
        """Adopt *output*, the error-free output of registry app *name* at
        this runner's scale that another process simulated, without
        building the app: an app this runner builds later takes it."""
        if name in self._apps:
            self._apps[name].adopt_error_free_output(output)
        else:
            self._references.setdefault(name, output)

    def run_spec(self, spec, tracer=None, profiler=None) -> tuple[RunRecord, RunResult]:
        """Run one frozen :class:`~repro.experiments.parallel.RunSpec`;
        returns the flat record plus the raw result.

        *tracer* is anything :func:`~repro.observability.coerce_tracer`
        understands: given a JSONL path, a
        :class:`~repro.observability.JsonlTracer` streaming there is opened
        for the run and closed afterwards.  ``profiler`` optionally records
        the run's simulated-time timeline
        (:class:`~repro.observability.profile.SimProfiler`).

        An ``ERROR_FREE`` run's decoded output becomes its app's cached
        error-free output when none is cached yet, so the grid's own
        error-free point is the SNR reference of every later run here.

        The first untraced, unprofiled run of an (app, protection,
        CommGuard config) level that no unmasked error reached becomes
        the level's quiet run.  A later run of the level replays it
        without simulating when its injectors certify that every arrival
        it would see is masked (:meth:`MulticoreSystem.build
        <repro.machine.system.MulticoreSystem.build>`), with the same
        record and result.  Its record is the quiet run's record with
        this run's ``mtbe``, ``seed`` and ``errors_injected``: every other
        field is a function of the outputs, thread counters and ``hung``
        the two runs share, so a replay decodes and scores nothing.  The
        fault model and the mix overrides are not in the level: they
        change nothing a masked arrival reaches.
        """
        from repro.observability.tracer import coerce_tracer

        app = self.app(spec.app)
        config = spec.commguard_config()
        level = (spec.app, spec.protection, config)
        quiet = self._quiet_runs.get(level)
        error_model = spec.error_model()
        if error_model is None and spec.protection.injects_errors:
            error_model = default_error_model(spec.fault_model, spec.mtbe)
        tracer, owned = coerce_tracer(tracer)
        try:
            system = MulticoreSystem.build(
                app.program,
                spec.protection,
                error_model=error_model,
                seed=spec.seed,
                commguard_config=config,
                tracer=tracer,
                fault_model=spec.fault_model,
                profiler=profiler,
                quiet=quiet,
            )
            result = system.run()
        finally:
            if owned is not None:
                owned.close()
        mtbe = None if spec.protection is ProtectionLevel.ERROR_FREE else spec.mtbe
        if system.replays:
            record = self._quiet_records[level]
            return (
                replace(
                    record,
                    mtbe=mtbe,
                    seed=spec.seed,
                    errors_injected=result.errors_injected,
                    subop_ratios=dict(record.subop_ratios),
                ),
                result,
            )
        if spec.protection is ProtectionLevel.ERROR_FREE:
            app.adopt_error_free_output(app.output_signal(result))
        total = result.aggregate_counters()
        stats = total.commguard
        load_ratio, store_ratio = result.header_memory_ratios(total)
        record = RunRecord(
            app=spec.app,
            protection=spec.protection,
            mtbe=mtbe,
            seed=spec.seed,
            frame_scale=spec.frame_scale,
            quality_db=app.quality(result),
            data_loss_ratio=result.data_loss_ratio(total),
            pad_events=stats.pad_events,
            discard_events=stats.discard_events,
            padded_items=stats.pads,
            discarded_items=stats.discarded_items,
            errors_injected=result.errors_injected,
            timeouts=stats.timeouts,
            committed_instructions=total.committed_instructions,
            execution_time=result.execution_time(total),
            header_load_ratio=load_ratio,
            header_store_ratio=store_ratio,
            subop_ratios=result.subop_ratios(total),
            hung=result.hung,
        )
        if (
            quiet is None
            and tracer is None
            and profiler is None
            and not result.errors_by_kind
        ):
            # The caller owns *result* and *record*; the memo keeps its own
            # copies of what a replay reads.
            self._quiet_runs[level] = replace(
                result,
                errors_by_kind={},
                outputs={name: list(words) for name, words in result.outputs.items()},
                thread_counters={
                    name: counters.copy()
                    for name, counters in result.thread_counters.items()
                },
                queue_peaks=dict(result.queue_peaks),
            )
            self._quiet_records[level] = replace(
                record, subop_ratios=dict(record.subop_ratios)
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
