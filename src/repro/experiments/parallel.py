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
  The pool holds a bounded window of tasks, :data:`TASKS_PER_WORKER` per
  worker; a task carries one run, or several short ones packed to about
  :data:`TASK_SECONDS` from the run times the workers report, and its
  records are stored in one transaction.
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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.apps.registry import APP_GRADING
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

#: Pool tasks in flight per worker: one running, one queued behind it, so
#: a worker never idles waiting for the dispatcher.
TASKS_PER_WORKER = 2

#: Wall time a task of several short runs aims for: enough runs that the
#: per-task dispatch and store transaction are small beside them, few
#: enough that results arrive within tens of milliseconds.
TASK_SECONDS = 0.05

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
        """Deterministic hash identifying this point at an app-build scale.

        The key hashes each field's value as given, so specs that compare
        equal can key differently: ``mtbe=64000`` and ``mtbe=64000.0``
        are equal and hash alike as specs, yet their keys differ.  Derive
        a grid's keys once and carry them to every consumer (campaign id,
        store, trace names); never memoize keys by spec equality.
        """
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


@contextmanager
def _sigterm_exits():
    """While the body runs on the main thread, SIGTERM raises
    :class:`SystemExit` (status 143) instead of killing the process at
    once, so the sweep's cleanup runs first: completed records are already
    in the store, and the pool's workers, which a killed parent would
    orphan, are stopped.  Only the default disposition is replaced (an
    ignored or handled SIGTERM is left alone), and it is restored
    afterwards."""
    if (
        threading.current_thread() is not threading.main_thread()
        or signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
    ):
        yield
        return

    def _exit(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut *pool* down and kill its workers now: a run in flight would
    keep one alive, orphaned if this process is on its way out.  The
    executor has no public accessor for them before 3.14."""
    workers = list(pool._processes.values())
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        worker.kill()


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
    # A forked worker inherits the parent's SIGTERM handler (see
    # _sigterm_exits); a worker told to terminate just dies.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_RUNNER = SimulationRunner(scale=scale)


class _Outcome(NamedTuple):
    """What one attempt came to.

    ``status`` is ``"ok"`` (``payload`` = the record) or a failure kind
    (``payload`` = the message).  ``cpu`` and ``wall`` are the attempt's
    own seconds in the process that ran it, queue wait excluded; ``wall``
    feeds the store provenance and the task packer.  ``output`` is the
    app's error-free output when the attempt was a successful
    ``ERROR_FREE`` point.  ``error`` is the exception the attempt raised;
    it never leaves the process that ran the attempt, as it need not
    pickle.
    """

    status: str
    payload: RunRecord | str
    cpu: float = 0.0
    wall: float = 0.0
    output: np.ndarray | None = None
    error: Exception | None = None


_CRASH = _Outcome("crash", "worker process died while executing this spec")


def _attempt(
    runner: SimulationRunner,
    spec: RunSpec,
    attempt: int,
    run_timeout: float | None,
    fault_hook,
    trace: str | None,
) -> _Outcome:
    """Run one attempt at *spec* on *runner* under its own deadline and
    fault hook, streaming its events to the JSONL path *trace* when given.

    Every attempt runs here: on the dispatcher's executor at ``jobs=1``,
    on the worker's runner in a pool task.  A fault of the run itself
    never raises; it becomes the outcome's failure kind, so the
    dispatcher accounts it without tearing a pool down.
    """
    cpu_before = time.process_time()
    wall_before = time.perf_counter()
    output = error = None
    try:
        with _deadline(run_timeout):
            hook = _resolve_fault_hook(fault_hook)
            if hook is not None:
                hook(spec, attempt)
            record = runner.execute_spec(spec, tracer=trace)
        if spec.protection is ProtectionLevel.ERROR_FREE:
            # The run adopted its own output as the app's reference (or
            # scored against an equal one), so this simulates nothing.
            output = runner.app(spec.app).error_free_output()
        status, payload = "ok", record
    except RunTimeoutError as exc:
        status, payload, error = "timeout", str(exc), exc
    except Exception as exc:
        status, payload, error = "exception", f"{type(exc).__name__}: {exc}", exc
    return _Outcome(
        status,
        payload,
        time.process_time() - cpu_before,
        time.perf_counter() - wall_before,
        output,
        error,
    )


def _run_task(
    entries: list[tuple[RunSpec, int, str | None]],
    run_timeout: float | None,
    fault_hook,
    references: dict[str, np.ndarray],
) -> list[_Outcome]:
    """Execute one pool task: one :func:`_attempt` per ``(spec, attempt,
    trace)`` entry, in order, returning one outcome per entry.

    *references* maps each self-referenced app of the task to its
    error-free output, simulated elsewhere: the worker adopts it instead
    of simulating its own.
    """
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    for app, output in references.items():
        _WORKER_RUNNER.adopt_reference(app, output)
    return [
        _attempt(
            _WORKER_RUNNER, spec, attempt, run_timeout, fault_hook, trace
        )._replace(error=None)
        for spec, attempt, trace in entries
    ]


def error_free_first(spec: RunSpec) -> bool:
    """Sort key running ``ERROR_FREE`` points first (a stable sort keeps
    grid order otherwise): an error-free run's output is the reference
    its app's later runs are scored against."""
    return spec.protection is not ProtectionLevel.ERROR_FREE


def _self_referenced(app: str) -> bool:
    grading = APP_GRADING.get(app)
    return grading is not None and grading.self_referenced


class _ReferenceRelay:
    """The pool's hand-off of each app's error-free output.

    A worker's reply to an ``ERROR_FREE`` point carries its app's output.
    The first to reach the dispatcher is adopted by the dispatcher's
    executor, which grading uses, and shipped with every later task of a
    self-referenced app (:data:`~repro.apps.registry.APP_GRADING`), whose
    worker then simulates no reference of its own.  While such an app
    has an error-free point in flight, its other specs are held.  With
    none in flight (none pending, or each one failed), they go out at
    once and each worker computes the reference itself.  The dispatcher
    settles every task however it ends, so a held spec is always
    released.
    """

    def __init__(self, executor: SimulationRunner) -> None:
        self.executor = executor
        self.outputs: dict[str, np.ndarray] = {}
        #: App -> indices of its error-free points in flight.
        self.producing: dict[str, set[int]] = {}
        self.held: dict[str, list] = {}

    def admit(self, item) -> bool:
        """Whether *item* is dispatched now; if not, it is held here until
        :meth:`settle` releases it."""
        index, spec = item[0], item[1]
        if spec.protection is ProtectionLevel.ERROR_FREE:
            self.producing.setdefault(spec.app, set()).add(index)
            return True
        if (
            self.producing.get(spec.app)
            and spec.app not in self.outputs
            and _self_referenced(spec.app)
        ):
            self.held.setdefault(spec.app, []).append(item)
            return False
        return True

    def reference(self, spec: RunSpec) -> np.ndarray | None:
        """The error-free output to ship with *spec*'s task, if any."""
        return self.outputs.get(spec.app) if _self_referenced(spec.app) else None

    def settle(self, item, output: np.ndarray | None = None) -> list:
        """*item*'s task ended, carrying *output* when it was a successful
        error-free point; returns the held items to dispatch now."""
        index, spec = item[0], item[1]
        if spec.protection is not ProtectionLevel.ERROR_FREE:
            return []
        producing = self.producing.get(spec.app, set())
        producing.discard(index)
        if output is not None and spec.app not in self.outputs:
            self.outputs[spec.app] = output
            self.executor.adopt_reference(spec.app, output)
        if producing and spec.app not in self.outputs:
            return []
        return self.held.pop(spec.app, [])


class _TaskPacker:
    """Packs the pool's queue into tasks.

    A run's wall time is estimated per (app, protection) from the wall
    times the workers report for completed runs.  A task takes runs off
    the front of the queue while their estimates fit in
    :data:`TASK_SECONDS`, so long runs travel alone.  A run with no
    estimate yet (the first of its app and protection level) travels
    alone, as does every error-free point, so a reference reaches the
    runs held for it as soon as it exists.  No task takes more than
    1 / (:data:`TASKS_PER_WORKER` x workers) of the queue, so the tail of
    the grid stays short.
    """

    def __init__(self) -> None:
        self.walls: dict[tuple[str, ProtectionLevel], float] = {}

    def observe(self, spec: RunSpec, wall: float) -> None:
        kind = (spec.app, spec.protection)
        last = self.walls.get(kind)
        self.walls[kind] = wall if last is None else (last + wall) / 2

    def take(self, queue: deque, relay: _ReferenceRelay, workers: int) -> list:
        """Pop the next task's items off *queue*; the items *relay* holds
        on the way stay held there."""
        limit = max(1, len(queue) // (TASKS_PER_WORKER * workers))
        task, budget = [], TASK_SECONDS
        while queue and len(task) < limit:
            spec = queue[0][1]
            wall = (
                None
                if spec.protection is ProtectionLevel.ERROR_FREE
                else self.walls.get((spec.app, spec.protection))
            )
            if task and (wall is None or wall > budget):
                break
            item = queue.popleft()
            if not relay.admit(item):
                continue
            task.append(item)
            if wall is None:
                break
            budget -= wall
        return task


@dataclass
class _Sweep:
    """The loop state of one :meth:`ParallelRunner.run_specs` call.

    Work items travel as ``(index, spec, key, attempt)`` tuples; each
    attempt ships its trace to the path the key names.  ``queue`` holds
    the items waiting for dispatch, and ``records`` receives each
    completed run at its index.
    """

    stats: SweepStats
    records: list[RunRecord | None]
    wall_before: float
    relay: _ReferenceRelay
    queue: deque = field(default_factory=deque)
    packer: _TaskPacker = field(default_factory=_TaskPacker)


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
        completed run (cache hits included), once the run's record is in
        the store — the CLI uses it for progress lines.
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
        to this many extra times before it becomes a failure.  A retry
        goes back to its queue at once: every run is seeded by its spec
        alone, so a later attempt computes nothing an immediate one
        would not.
    ``run_timeout``
        Per-run wall-clock limit in seconds (``None`` = unlimited).
        Enforced with SIGALRM in whichever process executes the spec, so
        a hung simulation is preempted without killing its worker.
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
        strict: bool = True,
        fault_hook=None,
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
        self.strict = strict
        self.fault_hook = fault_hook
        self.metrics = MetricsRegistry()
        self.profiler = profiler
        self.last_stats: SweepStats | None = None
        self.store = RunStore.coerce(store)
        self.campaign = campaign

    # -- sweep execution -------------------------------------------------------

    def run_specs(
        self, specs: Sequence[RunSpec], keys: Sequence[str] | None = None
    ) -> list[RunRecord]:
        """Run every spec, in order, returning one record per spec.

        Completed points found in the store are not re-run.  The remainder
        execute in-process (``jobs == 1``) or on a process pool whose
        workers build apps once via the pool initializer.  Results are
        bit-identical across worker counts because every run is seeded by
        its spec alone.  *keys* are the specs' content keys at this
        engine's scale when the caller holds them (registering a campaign
        derives them); otherwise they are derived here, once per spec,
        when the store or ``trace_dir`` needs them.

        Failed attempts (exceptions, per-run timeouts, worker crashes) are
        retried at once, up to ``retries`` times.  A
        spec that exhausts its budget raises :class:`SweepRunError` under
        ``strict=True`` (the default); under ``strict=False`` its slot in
        the returned list is ``None`` and a :class:`FailureRecord` is
        appended to ``last_stats.failures`` while every other point still
        completes.  ``KeyboardInterrupt`` cancels the pending work,
        leaves every already-counted record flushed to the store, sets
        partial ``last_stats`` (``interrupted=True``) and re-raises.  On
        the main thread, a SIGTERM does the same as a :class:`SystemExit`
        (see :func:`_sigterm_exits`), stopping any pool workers first.
        """
        specs = list(specs)
        jobs = resolve_jobs(self.jobs)
        stats = SweepStats(total=len(specs), jobs=jobs)
        sweep = _Sweep(
            stats=stats,
            records=[None] * len(specs),
            wall_before=time.perf_counter(),
            relay=_ReferenceRelay(self.executor),
        )

        if self.store is not None:
            self.store.set_context(jobs=jobs, campaign=self.campaign)
        if keys is None:
            if self.store is not None or self.trace_dir is not None:
                keys = [spec.content_key(self.scale) for spec in specs]
        elif len(keys) != len(specs):
            raise ValueError(f"{len(keys)} keys for {len(specs)} specs")

        pending: list[tuple[int, RunSpec, str | None, int]] = []
        with engine_span(self.profiler, "cache-scan", total=len(specs)):
            stored = self.store.load_many(keys) if self.store is not None else {}
            for index, spec in enumerate(specs):
                key = None if keys is None else keys[index]
                cached = stored.get(key)
                trace = self._trace_path(key)
                if cached is not None and (trace is None or Path(trace).exists()):
                    sweep.records[index] = cached
                    stats.cache_hits += 1
                    self.metrics.inc("sweep_cache_hits", app=spec.app)
                    if self.profiler is not None:
                        self.profiler.event(
                            "cache-hit", app=spec.app, seed=spec.seed
                        )
                    self._tick(sweep)
                else:
                    pending.append((index, spec, key, 0))

        pending.sort(key=lambda item: error_free_first(item[1]))
        sweep.queue.extend(pending)
        try:
            if pending:
                with _sigterm_exits(), engine_span(
                    self.profiler, "execute", pending=len(pending), jobs=jobs
                ):
                    if jobs == 1 or len(pending) == 1:
                        self._run_serial(sweep)
                    else:
                        self._run_pool(sweep, jobs)
        except (KeyboardInterrupt, SystemExit):
            stats.interrupted = True
            raise
        finally:
            # Exception paths included: last_stats always reflects the
            # (possibly partial) sweep, with fresh wall-clock timing.
            stats.wall_seconds = time.perf_counter() - sweep.wall_before
            self.last_stats = stats

        failed = {failure.index for failure in stats.failures}
        assert all(
            record is not None or index in failed
            for index, record in enumerate(sweep.records)
        )
        return sweep.records  # type: ignore[return-value]

    # -- fault-tolerant execution loops ----------------------------------------
    #
    # Both loops run every attempt through _attempt and land every batch
    # of outcomes through _settle, whose _dispose owns the
    # retry/raise/record decision, so serial and pool sweeps share one
    # failure policy.

    def _run_serial(self, sweep: _Sweep) -> None:
        while sweep.queue:
            item = _, spec, key, attempt = sweep.queue.popleft()
            outcome = _attempt(
                self.executor, spec, attempt, self.run_timeout,
                self.fault_hook, self._trace_path(key),
            )
            self._settle(sweep, [item], [outcome], sweep.queue)

    def _run_pool(self, sweep: _Sweep, jobs: int) -> None:
        """Pool loop with a bounded window and crash isolation.

        At most :data:`TASKS_PER_WORKER` tasks per worker are in flight,
        so each completion waits on the window's futures, never on the
        whole grid's.  A task carries one run or several short ones
        (:class:`_TaskPacker`); each spec in it runs under its own
        deadline, fault hook and attempt number and reports its own
        outcome.

        A dead worker breaks its whole ProcessPoolExecutor: every in-flight
        future settles :class:`BrokenExecutor` without saying which spec
        killed the process.  Every spec of a lost task is therefore
        *quarantined*, not charged an attempt.  Once the main queue
        drains, the quarantined specs run one at a time on a one-worker
        pool, reused until a crash breaks it, which attributes any repeat
        crash to exactly its culprit: innocents complete with their retry
        budget untouched, and the poison spec is charged a ``"crash"``
        whose retries stay in the quarantine.
        """
        queue, quarantine = sweep.queue, deque()
        workers = min(jobs, len(queue))
        pool: ProcessPoolExecutor | None = None
        size = 0
        # future -> (task, the queue its retries return to)
        outstanding: dict = {}
        try:
            while queue or quarantine or outstanding:
                if queue:
                    if pool is None:
                        size = min(workers, len(queue))
                        pool = self._spawn_pool(size)
                    while queue and len(outstanding) < TASKS_PER_WORKER * size:
                        task = sweep.packer.take(queue, sweep.relay, size)
                        if not task:
                            break
                        future = self._submit(pool, task, sweep.relay)
                        outstanding[future] = (task, queue)
                elif not outstanding:
                    # Main grid drained: attribute crashes one spec at a
                    # time.
                    if pool is not None and size > 1:
                        pool.shutdown()
                        pool = None
                    if pool is None:
                        size, pool = 1, self._spawn_pool(1)
                    task = [quarantine.popleft()]
                    future = self._submit(pool, task, sweep.relay)
                    outstanding[future] = (task, quarantine)
                done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
                lost = self._collect(sweep, done, outstanding)
                if not lost:
                    continue
                # The pool is broken: every remaining future settles with
                # the same BrokenExecutor — drain them all.
                lost += self._collect(sweep, wait(outstanding).done, outstanding)
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                sweep.stats.worker_crashes += 1
                self.metrics.inc("sweep_worker_crashes")
                items = [item for task, _ in lost for item in task]
                if lost[0][1] is quarantine:
                    # A quarantined spec runs alone: it is the culprit.
                    self._emit(WorkerCrashed(lost=1, requeued=0))
                    self._settle(sweep, items, [_CRASH], quarantine)
                    continue
                for item in items:
                    queue.extend(sweep.relay.settle(item))
                quarantine.extend(items)
                self._emit(WorkerCrashed(lost=len(items), requeued=len(items)))
        except BaseException:
            for future in outstanding:
                future.cancel()
            if pool is not None:
                _stop_pool(pool)
            raise
        if pool is not None:
            pool.shutdown(wait=True)

    def _submit(self, pool, task, relay):
        references = {}
        for item in task:
            reference = relay.reference(item[1])
            if reference is not None:
                references[item[1].app] = reference
        entries = [
            (spec, attempt, self._trace_path(key))
            for _, spec, key, attempt in task
        ]
        return pool.submit(
            _run_task, entries, self.run_timeout, self.fault_hook, references
        )

    def _spawn_pool(self, workers: int) -> ProcessPoolExecutor:
        if self.profiler is not None:
            self.profiler.event("pool-spawn", workers=max(workers, 1))
        return ProcessPoolExecutor(
            max_workers=max(workers, 1),
            initializer=_init_worker,
            initargs=(self.scale,),
        )

    def _collect(self, sweep: _Sweep, done, outstanding: dict) -> list:
        """Settle each finished future of *done*, taking it off
        *outstanding*; returns the ``(task, requeue)`` pairs lost to a
        broken pool."""
        lost = []
        for future in done:
            task, requeue = outstanding.pop(future)
            try:
                outcomes = future.result()
            except (BrokenExecutor, CancelledError):
                lost.append((task, requeue))
                continue
            except Exception as exc:  # e.g. an unpicklable payload
                message = f"{type(exc).__name__}: {exc}"
                outcomes = [_Outcome("exception", message, error=exc)] * len(task)
            self._settle(sweep, task, outcomes, requeue)
        return lost

    def _settle(
        self,
        sweep: _Sweep,
        task: list,
        outcomes: Sequence[_Outcome],
        requeue: deque,
    ) -> None:
        """Land one batch of outcomes, one per item of *task*.

        The completed runs' records are stored in one transaction, then
        each run is accounted.  Storing first means a
        ``KeyboardInterrupt`` raised from a progress callback never
        leaves a counted run unstored.  The specs the relay held for an
        error-free output in the batch go back to the main queue, and
        each failed attempt goes to :meth:`_dispose`, which returns a
        retry to *requeue*.
        """
        stats = sweep.stats
        completed, failed = [], []
        for item, outcome in zip(task, outcomes):
            stats.cpu_seconds += outcome.cpu
            sweep.queue.extend(sweep.relay.settle(item, outcome.output))
            if outcome.status == "ok":
                sweep.packer.observe(item[1], outcome.wall)
                completed.append((item, outcome.payload, outcome.wall))
            else:
                failed.append((item, outcome))
        if self.store is not None and completed:
            self.store.store_many(
                (key, spec, self.scale, record, {"wall_seconds": round(wall, 3)})
                for (_, spec, key, _), record, wall in completed
            )
        for (index, spec, _, _), record, wall in completed:
            sweep.records[index] = record
            stats.executed += 1
            self.metrics.inc("sweep_runs_executed", app=spec.app)
            self.metrics.observe("sweep_run_wall_seconds", wall, app=spec.app)
            if self.profiler is not None:
                self.profiler.record(
                    "run", wall, app=spec.app, seed=spec.seed, index=index
                )
            self._tick(sweep)
        for item, outcome in failed:
            self._dispose(sweep, item, outcome, requeue)

    def _dispose(
        self, sweep: _Sweep, item, outcome: _Outcome, requeue: deque
    ) -> None:
        """Account one failed attempt.  Within the budget, the spec returns
        to *requeue* at once with ``attempt + 1``; otherwise a
        :class:`FailureRecord` is filed (strict mode raises
        :class:`SweepRunError` instead of returning, chained to the
        attempt's exception when it ran in this process)."""
        index, spec, key, attempt = item
        failure, message = outcome.status, outcome.payload
        if attempt < self.retries:
            sweep.stats.retried += 1
            self.metrics.inc("sweep_run_retries", app=spec.app, failure=failure)
            self._emit(
                RunRetried(
                    app=spec.app,
                    seed=spec.seed,
                    failure=failure,
                    attempt=attempt + 1,
                )
            )
            requeue.append((index, spec, key, attempt + 1))
            return
        record = FailureRecord(
            index=index,
            spec=spec,
            failure=failure,
            message=message,
            attempts=attempt + 1,
        )
        sweep.stats.failed += 1
        sweep.stats.failures.append(record)
        if self.store is not None:
            self.store.record_failure(
                record, campaign=self.campaign, scale=self.scale, key=key
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
            raise SweepRunError(record) from outcome.error

    def _trace_path(self, key: str | None) -> str | None:
        """Where the run keyed *key* ships its trace (``None``: no
        ``trace_dir``, so runs are untraced)."""
        if self.trace_dir is None:
            return None
        return str(Path(self.trace_dir) / f"{key}.jsonl")

    def _emit(self, event) -> None:
        if self.tracer is not None:
            self.tracer.emit(event)

    def _tick(self, sweep: _Sweep) -> None:
        # Wall clock is refreshed on every completion — not only when a
        # progress callback is installed — so stats.summary() is never
        # stale for tracer-only or callback-less consumers.
        stats = sweep.stats
        stats.wall_seconds = time.perf_counter() - sweep.wall_before
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
