"""System assembly and cooperative run loop.

:func:`MulticoreSystem.build` compiles a :class:`StreamProgram` onto a
simulated multiprocessor under one of the four protection levels: it
partitions nodes onto cores, instantiates the per-edge queue backends
(corruptible software queues, reliable queues, or CommGuard's guarded
queues), wires the CommGuard modules when enabled, and creates one
:class:`~repro.machine.thread.NodeThread` per node.

A build handed its level's quiet run certifies first: when no unmasked
error can reach the run, the machine gets its cores and injectors only,
and :meth:`MulticoreSystem.run` replays the quiet run.

The run loop (see :mod:`repro.machine.scheduler`) lets each thread run
until it blocks, in virtual round-robin sweeps that step only the threads
a queue operation could have unblocked.  A sweep in which nothing
progressed means the system is stuck on queue state (e.g. a corrupted
software queue that looks simultaneously full and empty); after a few such
sweeps the QM timeout fires and blocked operations complete with pad/drop
semantics (Section 5.1), so runs always terminate — possibly with garbage
output, which is precisely the baseline behaviour of Figs. 3b/3c.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CommGuardConfig
from repro.core.guard import CommGuard
from repro.core.queue_manager import GuardedQueue, plan_geometry
from repro.machine.core import SimCore
from repro.machine.errors import ErrorKind, ErrorModel
from repro.machine.faults import FaultModelSpec, build_injector, default_error_model
from repro.machine.ppu import PPUModel
from repro.machine.protection import ProtectionLevel
from repro.machine.queues import RawQueue, ReliableQueue, SoftwareQueue
from repro.machine.runstats import RunResult
from repro.machine.scheduler import EventScheduler
from repro.machine.thread import CommPath, GuardedCommPath, NodeThread, RawCommPath
from repro.streamit.filters import IntSink
from repro.streamit.partition import partition_graph
from repro.streamit.program import StreamProgram


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Machine-level parameters.

    ``n_cores`` follows the paper's 10-core evaluation system.
    ``frame_stall_cycles`` is the pipeline-serialization cost CommGuard pays
    at each frame-computation boundary (Section 5.3; a typical pipeline
    depth).  ``header_transfer_cycles`` is the cost charged per header
    transferred through a queue in the Fig. 13 execution-time estimate.
    ``spin_instructions`` is the cost a blocked thread burns per
    fruitless sweep.  ``timeout_sweeps`` is how many consecutive no-progress
    sweeps arm the QM timeout (Section 5.1's blocked-operation timeouts).
    ``max_sweeps`` is a hard safety stop.

    ``exec_mode`` selects the simulation execution mode: ``"fast"`` (the
    default) lets each thread execute whole steady-state firings in bulk
    whenever the error injector certifies the firing's instruction window
    as quiet (no arrival before the *error horizon*) and the queues/guard
    certify it cannot block or transition any alignment FSM, dropping to
    the precise per-word machinery around every injected error; the words
    of a per-word firing that cannot block also move through bulk queue
    operations.  ``"precise"`` runs the per-word path unconditionally: it
    is the oracle, which the golden tests and ``scripts/record_bench.py``
    select.  Both are bit-identical — same :class:`RunResult`,
    byte-identical traces — and both reproduce the golden run digests in
    ``tests/fixtures/golden_runs.json``.

    The error process is not a machine parameter: the ``fault_model``
    argument of :meth:`MulticoreSystem.build` / :func:`run_program`
    selects it.
    """

    n_cores: int = 10
    frame_stall_cycles: int = 14
    header_transfer_cycles: int = 2
    spin_instructions: int = 50
    timeout_sweeps: int = 3
    max_sweeps: int = 50_000_000
    exec_mode: str = "fast"


class MulticoreSystem:
    """A built, runnable machine instance (single use: build, run, inspect).

    A machine that replays its level's quiet run (:attr:`replays`) holds
    only its cores, their injectors and the partition's node-to-core
    assignment: no queue, thread or CommGuard.
    """

    def __init__(
        self,
        program: StreamProgram,
        protection: ProtectionLevel,
        cores: list[SimCore],
        config: SystemConfig,
        tracer=None,
        profiler=None,
    ) -> None:
        self.program = program
        self.protection = protection
        self.cores = cores
        self.config = config
        #: Optional structured-event sink shared by every module of the
        #: machine (``None`` disables tracing with zero overhead).
        self.tracer = tracer
        #: Optional :class:`~repro.observability.profile.SimProfiler`
        #: shared by threads and queues (``None`` disables the
        #: simulated-time timeline with zero overhead).
        self.profiler = profiler
        #: qid -> queue backend, for occupancy collection (set by build()).
        self._queues: dict[int, object] = {}
        #: node -> core id (set by build()).
        self._assignment: dict = {}
        #: The quiet run this machine replays and each core's masked
        #: arrivals before its final clock in it (set by _certify()).
        self._quiet: RunResult | None = None
        self._masked: list[int] = []

    @property
    def replays(self) -> bool:
        """Whether :meth:`run` replays the level's quiet run instead of
        simulating: :meth:`build` certified every core."""
        return self._quiet is not None

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        program: StreamProgram,
        protection: ProtectionLevel,
        error_model: ErrorModel | None = None,
        seed: int = 0,
        commguard_config: CommGuardConfig | None = None,
        system_config: SystemConfig | None = None,
        ppu: PPUModel | None = None,
        edge_frame_scales: dict[int, int] | None = None,
        tracer=None,
        fault_model: FaultModelSpec | str | None = None,
        profiler=None,
        quiet: RunResult | None = None,
    ) -> "MulticoreSystem":
        """Build a runnable machine.

        ``edge_frame_scales`` optionally maps edge qids to frame-size
        scales, enabling Section 5.4's varying frame definitions across an
        application (edges not listed use ``commguard_config.frame_scale``).
        ``tracer`` is an optional :class:`repro.observability.Tracer`; when
        given, every module (injectors, AMs, HI, queues, threads) emits
        structured events into it.  ``None`` keeps the hot paths untouched.
        ``fault_model`` selects the error process from the registry in
        :mod:`repro.machine.faults` (``None`` is the default ``bit_flip``).
        ``profiler`` is an optional
        :class:`~repro.observability.profile.SimProfiler`; when given,
        threads record simulated-time segments and queues sample their
        occupancy into it (and the quiet-span and bulk queue fast paths
        decline, so every firing and queue operation is recorded).
        ``None`` keeps the hot paths untouched.
        ``quiet`` is optionally the level's *quiet run*: a fast, untraced
        run of the same program, protection, CommGuard config and machine
        config that no unmasked error reached (its ``errors_by_kind`` is
        empty).  The injectors are built first, and when every one
        certifies that all of this run's arrivals are masked
        (:meth:`_certify`), the machine is left unwired and :meth:`run`
        replays *quiet*; it is read, never mutated.
        """
        config = system_config or SystemConfig()
        if quiet is not None and (
            quiet.errors_by_kind or len(quiet.core_clocks) != config.n_cores
        ):
            raise ValueError(
                "quiet must be a run with no unmasked error on "
                f"{config.n_cores} cores"
            )
        cg_config = commguard_config or CommGuardConfig()
        edge_frame_scales = edge_frame_scales or {}
        ppu = ppu or PPUModel()
        fault = FaultModelSpec.coerce(fault_model)
        if protection is ProtectionLevel.ERROR_FREE:
            error_model = ErrorModel.error_free()
        elif error_model is None:
            raise ValueError(f"protection {protection} requires an error model")

        graph = program.graph
        assignment = partition_graph(graph, config.n_cores, program.frames)
        cores = [
            SimCore(core_id, build_injector(fault, error_model, seed, core_id, tracer))
            for core_id in range(config.n_cores)
        ]
        system = cls(program, protection, cores, config, tracer=tracer, profiler=profiler)
        system._assignment = assignment
        if quiet is not None and system._certify(quiet):
            return system

        graph.reset()
        guarded = protection.uses_commguard
        raw_queues: dict[int, RawQueue] = {}
        guarded_queues: dict[int, GuardedQueue] = {}
        for edge in graph.edges:
            edge_scale = edge_frame_scales.get(edge.qid, cg_config.frame_scale)
            items_per_frame = program.frames.items_per_frame[edge.qid] * edge_scale
            if guarded:
                geometry = plan_geometry(
                    edge.push_rate,
                    edge.pop_rate,
                    items_per_frame,
                    workset_units=cg_config.workset_units,
                )
                guarded_queues[edge.qid] = queue = GuardedQueue(edge.qid, geometry)
                queue.tracer = tracer
                queue.profiler = profiler
            else:
                capacity = (
                    max(2 * edge.push_rate, 2 * edge.pop_rate, items_per_frame, 64) + 4
                )
                queue_cls = (
                    SoftwareQueue
                    if protection.queue_pointers_corruptible
                    else ReliableQueue
                )
                raw_queues[edge.qid] = raw = queue_cls(capacity)
                raw.tracer = tracer
                raw.qid = edge.qid
                raw.profiler = profiler

        all_queues: dict[int, object] = dict(guarded_queues or raw_queues)
        for node in graph.nodes:
            in_edges = graph.in_edges(node)
            out_edges = graph.out_edges(node)
            comm: CommPath
            if guarded:
                guard = CommGuard(cg_config)
                for edge in in_edges:
                    guard.attach_incoming(
                        guarded_queues[edge.qid],
                        frame_scale=edge_frame_scales.get(edge.qid),
                    )
                for edge in out_edges:
                    guard.attach_outgoing(
                        guarded_queues[edge.qid],
                        frame_scale=edge_frame_scales.get(edge.qid),
                    )
                if tracer is not None:
                    guard.bind_tracer(tracer, node.name)
                comm = GuardedCommPath(
                    guard,
                    in_qids=[e.qid for e in in_edges],
                    out_qids=[e.qid for e in out_edges],
                )
            else:
                comm = RawCommPath(
                    incoming=[raw_queues[e.qid] for e in in_edges],
                    outgoing=[raw_queues[e.qid] for e in out_edges],
                    corruptible=protection.queue_pointers_corruptible,
                )
            core = cores[assignment[node]]
            thread = NodeThread(
                node=node,
                comm=comm,
                n_frames=program.n_frames,
                firings_per_frame=program.frames.firings_per_frame[node],
                injector=core.injector,
                ppu=ppu,
                frame_stall_cycles=config.frame_stall_cycles if guarded else 0,
                tracer=tracer,
                exec_mode=config.exec_mode,
                profiler=profiler,
            )
            if profiler is not None:
                # Track order = build order, deterministic per program.
                profiler.register_thread(node.name, thread.plan.describe())
            core.threads.append(thread)
        system._queues = all_queues
        return system

    def _certify(self, quiet: RunResult) -> bool:
        """Whether this run replays *quiet*: every core's injector
        certifies that each arrival before the core's final clock in
        *quiet* is masked (:meth:`ErrorInjector.masked_arrivals`).

        A masked arrival changes only the injector's counters and emits no
        event, so its firing runs its quiet body word for word, and the
        precise firing a window holding an arrival forces equals the quiet
        span it replaces (fast == precise).  Such a run therefore has
        *quiet*'s firings, sweeps, forced unblocks, queue peaks, outputs
        and core clocks; only its error counters differ.  Declined under a
        tracer, a profiler or ``exec_mode="precise"``, as the fast paths
        decline, so traces and timelines always come from a simulation.
        """
        if (
            self.tracer is not None
            or self.profiler is not None
            or self.config.exec_mode != "fast"
        ):
            return False
        masked = []
        for core, clock in zip(self.cores, quiet.core_clocks):
            count = core.injector.masked_arrivals(clock)
            if count is None:
                return False
            masked.append(count)
        self._quiet, self._masked = quiet, masked
        return True

    # -- execution ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute to completion; always terminates (timeouts guarantee it).

        The loop itself lives in :mod:`repro.machine.scheduler`.  A machine
        that :attr:`replays` takes its quiet run's end state instead
        (:meth:`_replay`); either way the result is collected by
        :meth:`_collect`.
        """
        result = RunResult(
            frame_stall_cycles=self.config.frame_stall_cycles,
            header_transfer_cycles=self.config.header_transfer_cycles,
        )
        if self._quiet is not None:
            threads, outputs, peaks = self._replay(result)
        else:
            EventScheduler().run(
                self, [t for core in self.cores for t in core.threads], result
            )
            threads = [
                [(thread.node.name, thread.counters) for thread in core.threads]
                for core in self.cores
            ]
            outputs = {
                node.name: node.collected
                for node in self.program.graph.sinks()
                if isinstance(node, IntSink)
            }
            peaks = {qid: _peak(queue) for qid, queue in self._queues.items()}
        self._collect(result, threads, outputs, peaks)
        return result

    def _replay(self, result: RunResult) -> tuple[list, dict, dict]:
        """Put the injectors in the quiet run's end state plus this run's
        masked arrivals, give *result* its scheduler results, and return
        what :meth:`_collect` reads: fresh copies of each core's thread
        counters (in build order) and of the sink outputs, and the queue
        peaks."""
        quiet = self._quiet
        for core, clock, count in zip(self.cores, quiet.core_clocks, self._masked):
            injector = core.injector
            injector.clock = clock
            injector.errors_injected += count
            injector.errors_masked += count
        threads: list[list] = [[] for _ in self.cores]
        for node in self.program.graph.nodes:
            threads[self._assignment[node]].append(
                (node.name, quiet.thread_counters[node.name].copy())
            )
        result.sweeps = quiet.sweeps
        result.hung = quiet.hung
        result.forced_unblocks = quiet.forced_unblocks
        outputs = {name: list(words) for name, words in quiet.outputs.items()}
        return threads, outputs, quiet.queue_peaks

    def _collect(
        self,
        result: RunResult,
        threads: list[list],
        outputs: dict[str, list[int]],
        peaks: dict[int, int],
    ) -> None:
        """Publish the injectors' counters, each core's *threads* (``(name,
        counters)`` pairs), the sink *outputs* and the per-edge queue
        *peaks* into the result and its metrics registry, and derive the
        legacy scalar aggregates from it."""
        metrics = result.metrics
        for core, core_threads in zip(self.cores, threads):
            injector = core.injector
            # The default bit_flip model keeps the legacy unlabelled
            # encoding (bit-identical RunResults); other models carry
            # their registry identity on every error series.
            model_label = (
                {} if injector.fault_name == "bit_flip"
                else {"model": injector.fault_name}
            )
            if injector.errors_injected:
                metrics.inc(
                    "errors_injected",
                    injector.errors_injected,
                    core=core.core_id,
                    **model_label,
                )
            if injector.errors_masked:
                metrics.inc(
                    "errors_masked",
                    injector.errors_masked,
                    core=core.core_id,
                    **model_label,
                )
            for kind, count in injector.errors_by_kind.items():
                metrics.inc(
                    "errors_effective",
                    count,
                    core=core.core_id,
                    kind=kind.value,
                    **model_label,
                )
            for name, counters in core_threads:
                result.thread_counters[name] = counters
                cg = counters.commguard
                for series, value in (
                    ("pads", cg.pads),
                    ("discarded_items", cg.discarded_items),
                    ("discarded_headers", cg.discarded_headers),
                    ("qm_timeouts", cg.timeouts),
                    ("header_stores", cg.header_stores),
                    ("header_loads", cg.header_loads),
                ):
                    if value:
                        metrics.inc(series, value, thread=name, core=core.core_id)
        result.outputs = outputs
        for qid, peak in peaks.items():
            metrics.set_gauge("queue_peak_units", peak, qid=qid)
        # Derived scalar views (kept as plain fields for existing consumers).
        result.errors_injected = metrics.total("errors_injected")
        result.errors_by_kind = {
            ErrorKind(kind): count
            for kind, count in metrics.labels("errors_effective", "kind").items()
        }
        result.queue_peaks = {
            int(qid): int(peak)
            for qid, peak in metrics.gauge_labels("queue_peak_units", "qid").items()
        }
        result.core_clocks = tuple(core.injector.clock for core in self.cores)


def _peak(queue) -> int:
    """A queue backend's buffered-unit high-water mark."""
    peak = getattr(queue, "peak_units", None)
    if peak is None:
        peak = getattr(queue, "peak_occupancy", 0)
    return int(peak)


def run_program(
    program: StreamProgram,
    protection: ProtectionLevel,
    mtbe: float | None = None,
    seed: int = 0,
    commguard_config: CommGuardConfig | None = None,
    system_config: SystemConfig | None = None,
    error_model: ErrorModel | None = None,
    tracer=None,
    fault_model: FaultModelSpec | str | None = None,
    profiler=None,
    quiet: RunResult | None = None,
) -> RunResult:
    """Convenience wrapper: build a system and run it once.

    ``mtbe`` is the per-core mean instructions between errors (ignored for
    ``ERROR_FREE``); pass ``error_model`` instead for a custom effect mix.
    ``fault_model`` selects the error process (``name[:param=val,...]``;
    default ``bit_flip``) — when ``error_model`` is omitted, the model's
    calibrated mix at ``mtbe`` is used.  ``tracer`` optionally receives
    structured events from every module; ``profiler`` optionally records
    the simulated-time timeline, and ``quiet`` is the level's quiet run a
    masked run may replay (see :meth:`MulticoreSystem.build`).
    """
    fault = FaultModelSpec.coerce(fault_model)
    if error_model is None and protection.injects_errors:
        error_model = default_error_model(fault, mtbe)
    system = MulticoreSystem.build(
        program,
        protection,
        error_model=error_model,
        seed=seed,
        commguard_config=commguard_config,
        system_config=system_config,
        tracer=tracer,
        fault_model=fault,
        profiler=profiler,
        quiet=quiet,
    )
    return system.run()
