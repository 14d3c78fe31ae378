"""Parallel experiment execution engine.

The paper's evaluation is a large cartesian sweep — benchmarks x protection
levels x an MTBE ladder x seeds x frame scales — and per-spec seeding makes
every point an independent, deterministic task.  This module fans those
points out:

* :class:`RunSpec` — a frozen, hashable description of one simulated run
  (app, protection, MTBE, seed, frame scale, the CommGuard design knobs,
  and optional error-model overrides) with a deterministic content key.
* :class:`ParallelRunner` — the dispatcher: its :meth:`run_specs` fans
  specs out over a :class:`~concurrent.futures.ProcessPoolExecutor`.  It
  is not an executor but holds one, as each worker process does (the pool
  initializer installs a per-worker :class:`SimulationRunner`, whose app
  cache amortizes codec encoding and graph construction across every spec
  the worker receives).  ``jobs=1`` runs the specs on the dispatcher's own
  executor, in-process, so results are bit-identical at any worker count.
* An optional :class:`~repro.experiments.store.RunStore` — the SQLite
  result cache: re-running a figure, or resuming an interrupted
  campaign, skips every already-completed point; executed runs land as
  provenance-stamped rows and exhausted failures as structured records.

Worker count resolution: an explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

import importlib
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.config import CommGuardConfig
from repro.experiments.cache import spec_key
from repro.experiments.store import RunStore
from repro.experiments.runner import RunRecord, SimulationRunner
from repro.machine.errors import ErrorModel
from repro.machine.faults import FaultModelSpec, default_error_model
from repro.machine.protection import ProtectionLevel
from repro.observability.events import (
    RunFailed,
    RunRetried,
    SweepProgress,
    WorkerCrashed,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.profile import engine_span

ENV_JOBS = "REPRO_JOBS"

_CONFIG_DEFAULTS = CommGuardConfig()


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One point of an experiment sweep, frozen and content-addressable.

    The first five fields are the paper's sweep axes.  The CommGuard design
    knobs mirror :class:`~repro.core.config.CommGuardConfig`; the optional
    ``p_*`` fields override the error model's masking/effect mix (the
    ablation targets set them) — all ``None`` means the calibrated
    default mix of the selected fault model at ``mtbe``.

    ``fault_model`` selects the error process from the registry in
    :mod:`repro.machine.faults`, as a canonical ``name[:param=val,...]``
    spec string (use :meth:`FaultModelSpec.canonical` — a non-canonical
    spelling of the same model would hash to a different cache key).  The
    default ``bit_flip`` is excluded from the content key, so every
    pre-registry cache entry and key stays valid.

    The app-build ``scale`` is deliberately *not* part of the spec: it is a
    property of the runner executing it (and of the worker pool), and it is
    mixed into the cache key separately.  Every field is something the run
    computes from; side outputs (a trace destination) travel beside the
    spec, never in it.
    """

    app: str
    protection: ProtectionLevel = ProtectionLevel.COMMGUARD
    mtbe: float | None = None
    seed: int = 0
    frame_scale: int = 1
    workset_units: int = _CONFIG_DEFAULTS.workset_units
    pad_word: int = _CONFIG_DEFAULTS.pad_word
    p_masked: float | None = None
    p_data: float | None = None
    p_control: float | None = None
    p_address: float | None = None
    fault_model: str = "bit_flip"

    def commguard_config(self) -> CommGuardConfig:
        return CommGuardConfig(
            frame_scale=self.frame_scale,
            workset_units=self.workset_units,
            pad_word=self.pad_word,
        )

    def error_model(self) -> ErrorModel | None:
        """The custom error model, or ``None`` for the calibrated default.

        ``None`` lets :func:`~repro.machine.system.run_program` derive the
        selected fault model's calibrated mix at ``mtbe``; explicit ``p_*``
        overrides are applied on top of that same baseline.
        """
        overrides = (self.p_masked, self.p_data, self.p_control, self.p_address)
        if all(p is None for p in overrides):
            return None
        defaults = default_error_model(
            FaultModelSpec.parse(self.fault_model), self.mtbe
        )
        return ErrorModel(
            mtbe=self.mtbe,
            p_masked=defaults.p_masked if self.p_masked is None else self.p_masked,
            p_data=defaults.p_data if self.p_data is None else self.p_data,
            p_control=defaults.p_control if self.p_control is None else self.p_control,
            p_address=(
                defaults.p_address if self.p_address is None else self.p_address
            ),
        )

    def content_key(self, scale: float = 1.0) -> str:
        """Deterministic hash identifying this point at an app-build scale."""
        return spec_key(self, scale)


@dataclass(frozen=True, slots=True)
class FailureRecord:
    """One sweep point that exhausted its retry budget.

    ``failure`` classifies what kept going wrong: ``"exception"`` (the run
    raised), ``"timeout"`` (it exceeded the per-run wall-clock limit) or
    ``"crash"`` (its worker process died).  ``attempts`` counts every
    attempt made, the first try included.
    """

    index: int
    spec: RunSpec
    failure: str
    message: str
    attempts: int

    def summary(self) -> str:
        return (
            f"{self.spec.app} seed={self.spec.seed} "
            f"mtbe={self.spec.mtbe}: {self.failure} after "
            f"{self.attempts} attempt(s) — {self.message}"
        )


class RunTimeoutError(RuntimeError):
    """One run exceeded its per-run wall-clock limit."""


class SweepRunError(RuntimeError):
    """A sweep point failed after exhausting its retries (strict mode).

    Carries the structured :class:`FailureRecord`; the underlying
    exception (when one exists in-process) is chained as ``__cause__``.
    """

    def __init__(self, failure: FailureRecord) -> None:
        super().__init__(failure.summary())
        self.failure = failure


@dataclass
class SweepStats:
    """Progress and timing of one :meth:`ParallelRunner.run_specs` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    retried: int = 0
    worker_crashes: int = 0
    interrupted: bool = False
    jobs: int = 1
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    started_at: float = field(default_factory=time.time)
    failures: list[FailureRecord] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.executed + self.cache_hits

    def summary(self) -> str:
        text = (
            f"{self.completed}/{self.total} runs "
            f"({self.cache_hits} cached) with {self.jobs} job(s) in "
            f"{self.wall_seconds:.1f}s wall / {self.cpu_seconds:.1f}s cpu"
        )
        if self.failed or self.retried or self.worker_crashes:
            text += (
                f"; {self.failed} failed, {self.retried} retried, "
                f"{self.worker_crashes} worker crash(es)"
            )
        if self.interrupted:
            text += " [interrupted]"
        return text


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` env > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get(ENV_JOBS, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"invalid {ENV_JOBS}={env!r}: expected a positive integer "
                    "worker count (e.g. REPRO_JOBS=4), or unset it to use "
                    "the CPU count"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


# -- per-run wall-clock deadlines ----------------------------------------------


def _alarms_available() -> bool:
    """SIGALRM deadlines need a POSIX main thread; elsewhere timeouts are
    unenforced (the sweep still completes, it just cannot preempt)."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`RunTimeoutError` in the body after *seconds* of wall
    clock.  ``None``/``0`` (or an unavailable SIGALRM) disables the limit."""
    if not seconds or not _alarms_available():
        yield
        return

    def _expire(_signum, _frame):
        raise RunTimeoutError(
            f"run exceeded its {seconds:g}s wall-clock limit"
        )

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _resolve_fault_hook(hook) -> Callable[[RunSpec, int], None] | None:
    """Normalize the fault-injection seam: a callable passes through, a
    ``"module:attr"`` string is imported (in whichever process runs the
    spec), ``None`` disables injection."""
    if hook is None or callable(hook):
        return hook
    modname, _, attr = hook.partition(":")
    return getattr(importlib.import_module(modname), attr)


# -- worker-process plumbing ---------------------------------------------------
#
# Each pool worker holds one SimulationRunner; its app cache means every
# benchmark is built at most once per worker regardless of how many specs
# land there.

_WORKER_RUNNER: SimulationRunner | None = None


def _init_worker(scale: float) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = SimulationRunner(scale=scale)


def _run_in_worker(
    index: int,
    spec: RunSpec,
    attempt: int = 0,
    run_timeout: float | None = None,
    fault_hook=None,
    trace: str | None = None,
) -> tuple[int, str, RunRecord | str, float, float]:
    """Execute one attempt in a pool worker (streaming its events to the
    JSONL path *trace*, when given).

    Never raises for per-run faults: the outcome travels back as
    ``(index, status, payload, cpu_seconds, wall_seconds)`` where
    *status* is ``"ok"`` (payload = the record) or a failure kind
    (payload = the message), so the parent can account retries without
    tearing the pool down.  ``wall_seconds`` is this attempt's own
    elapsed time, measured in the executing process (queue wait
    excluded) — it feeds the per-row store provenance.
    """
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    cpu_before = time.process_time()
    wall_before = time.perf_counter()
    try:
        with _deadline(run_timeout):
            hook = _resolve_fault_hook(fault_hook)
            if hook is not None:
                hook(spec, attempt)
            record = _WORKER_RUNNER.execute_spec(spec, tracer=trace)
        return (
            index, "ok", record,
            time.process_time() - cpu_before,
            time.perf_counter() - wall_before,
        )
    except RunTimeoutError as exc:
        return (
            index, "timeout", str(exc),
            time.process_time() - cpu_before,
            time.perf_counter() - wall_before,
        )
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        return (
            index, "exception", message,
            time.process_time() - cpu_before,
            time.perf_counter() - wall_before,
        )


class ParallelRunner:
    """The sweep dispatcher: fans specs out over processes and a store.

    ``scale``
        App-build input scale of every run.  ``executor`` is the
        :class:`SimulationRunner` at that scale that runs the serial path
        and builds the apps grading needs in this process.
    ``jobs``
        Default worker count for :meth:`run_specs` (``None`` resolves via
        ``REPRO_JOBS`` / ``os.cpu_count()`` at call time).  ``1`` runs the
        exact in-process serial path.
    ``progress``
        Optional ``callable(stats: SweepStats)`` invoked after every
        completed run (cache hits included) — the CLI uses it for
        progress lines.
    ``trace_dir``
        Optional directory: every executed run streams its JSONL trace to
        ``<trace_dir>/<content_key>.jsonl``.  A stored record stands in
        for a run only when that file already exists (a store hit would
        otherwise silently skip the requested side output).
    ``tracer``
        Optional sweep-level event sink; receives one
        :class:`~repro.observability.events.SweepProgress` per completed
        run (cache hits included) plus the fault-tolerance events
        (:class:`~repro.observability.events.RunRetried`,
        :class:`~repro.observability.events.RunFailed`,
        :class:`~repro.observability.events.WorkerCrashed`).
    ``retries``
        Bounded retry budget per spec: a failed attempt (exception,
        timeout, or worker crash attributed to the spec) is re-executed up
        to this many extra times before it becomes a failure.
    ``run_timeout``
        Per-run wall-clock limit in seconds (``None`` = unlimited).
        Enforced with SIGALRM in whichever process executes the spec, so
        a hung simulation is preempted without killing its worker.
    ``retry_backoff``
        Deterministic backoff base: attempt *n* sleeps
        ``retry_backoff * 2**n`` seconds before re-dispatch.  No random or
        time-seeded jitter — results stay bit-reproducible.  Default 0
        (immediate retry; the simulator is deterministic, so backoff only
        matters for environmental faults like disk pressure).
    ``strict``
        ``True`` (default, today's semantics): the first spec to exhaust
        its retries raises :class:`SweepRunError`.  ``False`` (keep-going
        mode): failed points are returned as ``None`` slots and reported
        as :class:`FailureRecord`\\ s on ``last_stats.failures``, while
        every other point still completes.
    ``fault_hook``
        Deterministic fault-injection seam for the robustness test-suite:
        a callable (or importable ``"module:attr"`` string) invoked as
        ``hook(spec, attempt)`` in the executing process immediately
        before each attempt.  It may raise, outlast the run timeout, or
        kill its process to exercise the fault-tolerance layer.
    ``store``
        Optional :class:`~repro.experiments.store.RunStore` (or path /
        ``True`` for the default location), the result cache:
        completed points found there are not re-run, executed records
        are written to it with provenance, and exhausted failures are
        filed as structured rows.  ``None`` (default) caches nothing.
    ``campaign``
        Optional campaign id stamped on the stored rows and failures.
        The caller registers the campaign's grid first
        (:meth:`RunStore.begin_campaign`); re-running the grid then
        resumes it exactly where it stopped, at any ``jobs`` value.
    ``profiler``
        Optional :class:`~repro.observability.profile.EngineProfiler`:
        the sweep records wall-clock spans (sweep → cache scan → run,
        pool lifetimes) and cache-hit instants into it.  Wall time is a
        nondeterministic side channel — spans never enter cache keys,
        trace bytes, stored records, or reports.
    """

    def __init__(
        self,
        scale: float = 1.0,
        jobs: int | None = None,
        progress: Callable[[SweepStats], None] | None = None,
        trace_dir: str | os.PathLike | None = None,
        tracer=None,
        retries: int = 0,
        run_timeout: float | None = None,
        retry_backoff: float = 0.0,
        strict: bool = True,
        fault_hook=None,
        metrics: MetricsRegistry | None = None,
        store: RunStore | str | bool | None = None,
        campaign: str | None = None,
        profiler=None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError(f"run_timeout must be positive, got {run_timeout}")
        self.scale = scale
        self.executor = SimulationRunner(scale=scale)
        self.jobs = jobs
        self.progress = progress
        self.trace_dir = trace_dir
        self.tracer = tracer
        self.retries = retries
        self.run_timeout = run_timeout
        self.retry_backoff = retry_backoff
        self.strict = strict
        self.fault_hook = fault_hook
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler
        self.last_stats: SweepStats | None = None
        self.store = RunStore.coerce(store)
        self.campaign = campaign

    # -- sweep execution -------------------------------------------------------

    def run_specs(self, specs: Sequence[RunSpec]) -> list[RunRecord]:
        """Run every spec, in order, returning one record per spec.

        Completed points found in the store are not re-run.  The remainder
        execute in-process (``jobs == 1``) or on a process pool whose
        workers build apps once via the pool initializer.  Results are
        bit-identical across worker counts because every run is seeded by
        its spec alone.

        Failed attempts (exceptions, per-run timeouts, worker crashes) are
        retried up to ``retries`` times with deterministic backoff.  A
        spec that exhausts its budget raises :class:`SweepRunError` under
        ``strict=True`` (the default); under ``strict=False`` its slot in
        the returned list is ``None`` and a :class:`FailureRecord` is
        appended to ``last_stats.failures`` while every other point still
        completes.  ``KeyboardInterrupt`` cancels the pending work,
        leaves every already-completed record flushed to the store, sets
        partial ``last_stats`` (``interrupted=True``) and re-raises.
        """
        specs = list(specs)
        jobs = resolve_jobs(self.jobs)
        stats = SweepStats(total=len(specs), jobs=jobs)
        wall_before = time.perf_counter()
        records: list[RunRecord | None] = [None] * len(specs)

        if self.store is not None:
            self.store.set_context(jobs=jobs, campaign=self.campaign)

        pending: list[tuple[int, RunSpec, str | None]] = []
        keyed = self.store is not None or self.trace_dir is not None
        with engine_span(self.profiler, "cache-scan", total=len(specs)):
            for index, spec in enumerate(specs):
                key = spec.content_key(self.scale) if keyed else None
                cached = self.store.load(key) if self.store is not None else None
                trace = self._trace_path(key)
                if cached is not None and (trace is None or Path(trace).exists()):
                    records[index] = cached
                    stats.cache_hits += 1
                    self.metrics.inc("sweep_cache_hits", app=spec.app)
                    if self.profiler is not None:
                        self.profiler.event(
                            "cache-hit", app=spec.app, seed=spec.seed
                        )
                    self._tick(stats, wall_before)
                else:
                    pending.append((index, spec, key))

        try:
            if pending:
                with engine_span(
                    self.profiler, "execute", pending=len(pending), jobs=jobs
                ):
                    if jobs == 1 or len(pending) == 1:
                        self._run_serial(pending, records, stats, wall_before)
                    else:
                        self._run_pool(pending, records, stats, wall_before, jobs)
        except KeyboardInterrupt:
            stats.interrupted = True
            raise
        finally:
            # Exception paths included: last_stats always reflects the
            # (possibly partial) sweep, with fresh wall-clock timing.
            stats.wall_seconds = time.perf_counter() - wall_before
            self.last_stats = stats

        failed = {failure.index for failure in stats.failures}
        assert all(
            record is not None or index in failed
            for index, record in enumerate(records)
        )
        return records  # type: ignore[return-value]

    # -- fault-tolerant execution loops ----------------------------------------
    #
    # Work items travel as (index, spec, key, attempt) tuples; each attempt
    # ships its trace to the path the key names.  Both loops funnel failed
    # attempts through _dispose, which owns the retry/raise/record
    # decision, so serial and pool sweeps share one failure policy.

    def _run_serial(self, pending, records, stats, wall_before) -> None:
        queue = deque((index, spec, key, 0) for index, spec, key in pending)
        hook = _resolve_fault_hook(self.fault_hook)
        while queue:
            item = index, spec, key, attempt = queue.popleft()
            cpu_before = time.process_time()
            run_before = time.perf_counter()
            try:
                with _deadline(self.run_timeout):
                    if hook is not None:
                        hook(spec, attempt)
                    record = self.executor.execute_spec(
                        spec, tracer=self._trace_path(key)
                    )
            except RunTimeoutError as exc:
                stats.cpu_seconds += time.process_time() - cpu_before
                if self._dispose(item, "timeout", str(exc), stats, exc):
                    queue.append((index, spec, key, attempt + 1))
                continue
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                stats.cpu_seconds += time.process_time() - cpu_before
                message = f"{type(exc).__name__}: {exc}"
                if self._dispose(item, "exception", message, stats, exc):
                    queue.append((index, spec, key, attempt + 1))
                continue
            stats.cpu_seconds += time.process_time() - cpu_before
            self._finish(
                records, stats, wall_before, index, spec, key, record,
                run_wall=time.perf_counter() - run_before,
            )

    def _run_pool(self, pending, records, stats, wall_before, jobs) -> None:
        """Pool loop with crash isolation.

        A dead worker breaks its whole ProcessPoolExecutor: every in-flight
        future settles :class:`BrokenExecutor` without saying which spec
        killed the process.  Lost specs are therefore *quarantined* — not
        charged an attempt — and re-run one-per-pool once the main queue
        drains, which attributes any repeat crash to exactly its culprit:
        innocents complete with their retry budget untouched, the poison
        spec burns its own budget and becomes a ``"crash"`` failure.
        """
        queue = deque((index, spec, key, 0) for index, spec, key in pending)
        quarantine: deque = deque()
        workers = min(jobs, len(pending))
        pool: ProcessPoolExecutor | None = None
        outstanding: dict = {}
        try:
            while queue or outstanding or quarantine:
                if queue:
                    if pool is None:
                        pool = self._spawn_pool(min(workers, len(queue)))
                    while queue:
                        item = queue.popleft()
                        future = pool.submit(
                            _run_in_worker,
                            item[0],
                            item[1],
                            item[3],
                            self.run_timeout,
                            self.fault_hook,
                            self._trace_path(item[2]),
                        )
                        outstanding[future] = item
                if not outstanding:
                    # Main grid drained: attribute crashes one spec at a time.
                    self._run_quarantined(
                        quarantine, records, stats, wall_before
                    )
                    continue
                done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
                lost = [
                    item
                    for future in done
                    if (item := self._consume(
                        future, outstanding.pop(future), queue,
                        records, stats, wall_before,
                    )) is not None
                ]
                if lost:
                    # The pool is broken: every remaining future settles
                    # with the same BrokenExecutor — drain them all.
                    done, _ = wait(outstanding)
                    for future in done:
                        item = self._consume(
                            future, outstanding.pop(future), queue,
                            records, stats, wall_before,
                        )
                        if item is not None:
                            lost.append(item)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    quarantine.extend(lost)
                    stats.worker_crashes += 1
                    self.metrics.inc("sweep_worker_crashes")
                    self._emit(
                        WorkerCrashed(lost=len(lost), requeued=len(lost))
                    )
        except BaseException:
            for future in outstanding:
                future.cancel()
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            raise
        if pool is not None:
            pool.shutdown(wait=True)

    def _spawn_pool(self, workers: int) -> ProcessPoolExecutor:
        if self.profiler is not None:
            self.profiler.event("pool-spawn", workers=max(workers, 1))
        return ProcessPoolExecutor(
            max_workers=max(workers, 1),
            initializer=_init_worker,
            initargs=(self.scale,),
        )

    def _consume(
        self, future, item, requeue, records, stats, wall_before
    ):
        """Settle one future.  Returns the item when it was lost to a pool
        crash (the caller quarantines it), ``None`` otherwise."""
        index, spec, key, attempt = item
        try:
            _, status, payload, cpu, wall = future.result()
        except (BrokenExecutor, CancelledError):
            return item
        except Exception as exc:  # e.g. an unpicklable payload
            message = f"{type(exc).__name__}: {exc}"
            if self._dispose(item, "exception", message, stats, exc):
                requeue.append((index, spec, key, attempt + 1))
            return None
        stats.cpu_seconds += cpu
        if status == "ok":
            self._finish(
                records, stats, wall_before, index, spec, key, payload,
                run_wall=wall,
            )
        elif self._dispose(item, status, payload, stats):
            requeue.append((index, spec, key, attempt + 1))
        return None

    def _run_quarantined(
        self, quarantine, records, stats, wall_before
    ) -> None:
        """Re-run one quarantined spec in a single-worker pool of its own,
        so a repeat crash is attributable to this spec alone."""
        item = index, spec, key, attempt = quarantine.popleft()
        solo = self._spawn_pool(1)
        try:
            future = solo.submit(
                _run_in_worker, index, spec, attempt,
                self.run_timeout, self.fault_hook, self._trace_path(key),
            )
            crashed = self._consume(
                future, item, quarantine, records, stats, wall_before
            )
            if crashed is not None:
                stats.worker_crashes += 1
                self.metrics.inc("sweep_worker_crashes")
                self._emit(WorkerCrashed(lost=1, requeued=0))
                message = "worker process died while executing this spec"
                if self._dispose(item, "crash", message, stats):
                    quarantine.append((index, spec, key, attempt + 1))
        finally:
            solo.shutdown(wait=False, cancel_futures=True)

    def _dispose(
        self, item, failure: str, message: str, stats, exc=None
    ) -> bool:
        """Account one failed attempt: ``True`` means retry (the caller
        requeues with ``attempt + 1``); ``False`` means the budget is
        exhausted and a :class:`FailureRecord` was filed (strict mode
        raises :class:`SweepRunError` instead of returning)."""
        index, spec, key, attempt = item
        if attempt < self.retries:
            stats.retried += 1
            self.metrics.inc("sweep_run_retries", app=spec.app, failure=failure)
            backoff = self.retry_backoff * (2**attempt)
            self._emit(
                RunRetried(
                    app=spec.app,
                    seed=spec.seed,
                    failure=failure,
                    attempt=attempt + 1,
                    backoff_seconds=backoff,
                )
            )
            if backoff > 0:
                time.sleep(backoff)
            return True
        record = FailureRecord(
            index=index,
            spec=spec,
            failure=failure,
            message=message,
            attempts=attempt + 1,
        )
        stats.failed += 1
        stats.failures.append(record)
        if self.store is not None:
            self.store.record_failure(
                record, campaign=self.campaign, scale=self.scale
            )
        self.metrics.inc("sweep_run_failures", app=spec.app, failure=failure)
        self._emit(
            RunFailed(
                app=spec.app,
                seed=spec.seed,
                failure=failure,
                message=message,
                attempts=attempt + 1,
            )
        )
        if self.strict:
            raise SweepRunError(record) from exc
        return False

    def _finish(
        self, records, stats, wall_before, index, spec, key, record,
        run_wall: float | None = None,
    ) -> None:
        records[index] = record
        stats.executed += 1
        self.metrics.inc("sweep_runs_executed", app=spec.app)
        if run_wall is not None:
            self.metrics.observe("sweep_run_wall_seconds", run_wall, app=spec.app)
        if self.profiler is not None and run_wall is not None:
            # The attempt's own elapsed time, measured in whichever
            # process executed it (queue wait excluded).
            self.profiler.record(
                "run", run_wall, app=spec.app, seed=spec.seed, index=index
            )
        if self.store is not None:
            # run_wall is this run's own elapsed time in its executing
            # process — not the sweep's cumulative wall clock.
            provenance = (
                {"wall_seconds": round(run_wall, 3)}
                if run_wall is not None else {}
            )
            self.store.store(
                key, spec, self.scale, record, provenance=provenance,
            )
        self._tick(stats, wall_before)

    def _trace_path(self, key: str | None) -> str | None:
        """Where the run keyed *key* ships its trace (``None``: no
        ``trace_dir``, so runs are untraced)."""
        if self.trace_dir is None:
            return None
        return str(Path(self.trace_dir) / f"{key}.jsonl")

    def _emit(self, event) -> None:
        if self.tracer is not None:
            self.tracer.emit(event)

    def _tick(self, stats: SweepStats, wall_before: float) -> None:
        # Wall clock is refreshed on every completion — not only when a
        # progress callback is installed — so stats.summary() is never
        # stale for tracer-only or callback-less consumers.
        stats.wall_seconds = time.perf_counter() - wall_before
        if self.progress is not None:
            self.progress(stats)
        self._emit(
            SweepProgress(
                completed=stats.completed,
                total=stats.total,
                executed=stats.executed,
                cache_hits=stats.cache_hits,
                failures=stats.failed,
            )
        )
