"""Thread runtime: one stream-graph node executing on a simulated core.

A :class:`NodeThread` runs its filter's statically known plan — for each of
``n_frames`` frame computations, fire ``firings_per_frame`` times — exactly
as a PPU-guided StreamIt thread would (scope sequencing is guaranteed, so
the plan's *shape* survives errors; only the data and per-firing item counts
are perturbed).

The thread body is a generator that yields whenever a queue operation
blocks, which makes every push/pop resumable across scheduler quanta.  The
communication path is pluggable (:class:`RawCommPath` for the baseline
queues, :class:`GuardedCommPath` for CommGuard), so the same thread code
runs under every protection level of Fig. 3.

Error application: before each firing the thread drains its core's error
injector for the firing's instruction window and converts the drawn
register-file errors into their architectural effects — bit flips in live
input/output/state words (DATA), bounded item-count perturbations (CONTROL),
garbage loads or queue-pointer corruption (ADDRESS).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterator

from repro.core.guard import CommGuard
from repro.core.stats import ThreadCounters
from repro.machine.errors import ErrorInjector, ErrorKind
from repro.machine.plan import FiringPlan, FramePlan, compile_frame_plan, compile_plan
from repro.machine.ppu import PPUModel
from repro.machine.queues import RawQueue
from repro.observability.events import QMTimeout
from repro.streamit.filters import Filter
from repro.words import flip_bit


class CommPath:
    """Communication interface a thread drives (one per thread)."""

    def on_frame_start(self) -> None:
        """Frame-computation rollover (signalled by the protection module)."""

    def advance_frame_start(self) -> bool:
        """Drain frame-boundary work (header insertion); True when done."""
        return True

    def push(self, port: int, word: int) -> bool:
        raise NotImplementedError

    def pop(self, port: int) -> int | None:
        raise NotImplementedError

    def push_many(self, port: int, words: list[int], start: int) -> int:
        """Bulk fast path: push ``words[start:]`` while room remains; return
        how many were consumed.  Must be observably identical to the same
        sequence of :meth:`push` calls; ``0`` falls back to per-word."""
        return 0

    def pop_many(self, port: int, limit: int) -> list[int]:
        """Bulk fast path: pop up to *limit* words that cannot block.  Must
        be observably identical to the same :meth:`pop` calls; ``[]`` falls
        back to per-word."""
        return []

    def can_fire_quiet(
        self, input_rates: tuple[int, ...], output_rates: tuple[int, ...]
    ) -> bool:
        """True when one whole steady-state firing (popping ``input_rates``
        and pushing ``output_rates`` per port) is guaranteed to complete
        without blocking or any guard-state transition — the quiet-span
        fast path's communication-eligibility check.  Conservative ``False``
        falls back to the precise per-word path."""
        return False

    def on_end(self) -> None:
        """Outermost scope exited."""

    def advance_end(self) -> bool:
        """Drain end-of-computation work (EOC headers, flush); True when done."""
        return True

    def corrupt_management_state(self, rng: random.Random) -> bool:
        """Apply a queue-pointer corruption if this path has unprotected
        management state; returns whether anything was corrupted."""
        return False


class RawCommPath(CommPath):
    """Direct queue access (ERROR_FREE / PPU_ONLY / PPU_RELIABLE_QUEUE)."""

    def __init__(
        self, incoming: list[RawQueue], outgoing: list[RawQueue], corruptible: bool
    ) -> None:
        self._incoming = incoming
        self._outgoing = outgoing
        self._corruptible = corruptible

    def push(self, port: int, word: int) -> bool:
        return self._outgoing[port].push(word)

    def pop(self, port: int) -> int | None:
        return self._incoming[port].pop()

    def push_many(self, port: int, words: list[int], start: int) -> int:
        return self._outgoing[port].push_many(words, start)

    def pop_many(self, port: int, limit: int) -> list[int]:
        return self._incoming[port].pop_many(limit)

    def can_fire_quiet(
        self, input_rates: tuple[int, ...], output_rates: tuple[int, ...]
    ) -> bool:
        incoming = self._incoming
        for port, rate in enumerate(input_rates):
            if incoming[port].occupancy() < rate:
                return False
        outgoing = self._outgoing
        for port, rate in enumerate(output_rates):
            queue = outgoing[port]
            # A corrupted software-queue pointer can make occupancy()
            # astronomical; the room then goes negative and the precise
            # path handles the apparent-full blocking semantics.
            if queue.capacity - queue.occupancy() < rate:
                return False
        return True

    def corrupt_management_state(self, rng: random.Random) -> bool:
        if not self._corruptible:
            return False
        queues: list[RawQueue] = [*self._incoming, *self._outgoing]
        if not queues:
            return False
        rng.choice(queues).corrupt_pointer(rng)
        return True


class GuardedCommPath(CommPath):
    """Communication through the CommGuard modules."""

    def __init__(self, guard: CommGuard, in_qids: list[int], out_qids: list[int]) -> None:
        self.guard = guard
        #: Queue ids of the input / output ports, in port order.
        self.in_qids = in_qids
        self.out_qids = out_qids

    def on_frame_start(self) -> None:
        self.guard.on_new_frame_computation()

    def advance_frame_start(self) -> bool:
        return self.guard.advance_header_insertions()

    def push(self, port: int, word: int) -> bool:
        return self.guard.push(self.out_qids[port], word)

    def pop(self, port: int) -> int | None:
        return self.guard.pop(self.in_qids[port])

    def push_many(self, port: int, words: list[int], start: int) -> int:
        return self.guard.push_many(self.out_qids[port], words, start)

    def pop_many(self, port: int, limit: int) -> list[int]:
        return self.guard.pop_many(self.in_qids[port], limit)

    def can_fire_quiet(
        self, input_rates: tuple[int, ...], output_rates: tuple[int, ...]
    ) -> bool:
        guard = self.guard
        if not guard.hi.idle:
            # Pending header insertions serialize before queue traffic
            # (Section 5.3); defensive — the thread drains them at frame
            # boundaries before any firing runs.
            return False
        in_qids = self.in_qids
        for port, rate in enumerate(input_rates):
            if not guard.can_pop_quiet(in_qids[port], rate):
                return False
        out_qids = self.out_qids
        for port, rate in enumerate(output_rates):
            if not guard.can_push_quiet(out_qids[port], rate):
                return False
        return True

    def on_end(self) -> None:
        self.guard.on_end_of_computation()

    def advance_end(self) -> bool:
        return self.guard.advance_header_insertions()


@dataclass(slots=True)
class _FiringPlan:
    """Architectural effects of the errors landing in one firing."""

    input_bitflips: int = 0
    output_bitflips: int = 0
    state_bitflips: int = 0
    garbage_loads: int = 0
    pop_deltas: dict[int, int] = field(default_factory=dict)
    push_deltas: dict[int, int] = field(default_factory=dict)


class NodeThread:
    """One stream node running as a thread pinned to a simulated core."""

    def __init__(
        self,
        node: Filter,
        comm: CommPath,
        n_frames: int,
        firings_per_frame: int,
        injector: ErrorInjector,
        ppu: PPUModel,
        frame_stall_cycles: int = 0,
        tracer=None,
        exec_mode: str = "fast",
        profiler=None,
    ) -> None:
        if exec_mode not in ("fast", "precise"):
            raise ValueError(
                f"unknown exec_mode {exec_mode!r}; "
                "valid choices: 'fast', 'precise'"
            )
        self.node = node
        self.comm = comm
        self.n_frames = n_frames
        self.firings_per_frame = firings_per_frame
        self.injector = injector
        self.ppu = ppu
        self.frame_stall_cycles = frame_stall_cycles
        #: Optional structured-event sink (``None`` disables tracing).
        self.tracer = tracer
        #: Optional :class:`~repro.observability.profile.SimProfiler`.
        #: ``None`` disables the simulated-time timeline; with one
        #: attached the thread keeps a monotone per-thread clock
        #: (``sim_now``, in simulated cycles) and reports every firing /
        #: quiet firing / blocked spin / frame stall as a segment.
        self.profiler = profiler
        #: Per-thread simulated clock; only advanced under a profiler.
        self.sim_now = 0
        #: Credit-based batched firing: queue words that cannot block move
        #: in bulk (wall-clock only; results and trace bytes are invariant).
        #: Part of the fast machinery — ``exec_mode="precise"`` is the pure
        #: per-word oracle.  Off under a profiler, which samples occupancy
        #: per queue operation.  A tracer leaves it on: the queues' bulk
        #: pushes decline by themselves under a tracer (high-water events
        #: carry per-crossing occupancy), while bulk pops emit no events.
        self._bulk_transfers = exec_mode == "fast" and profiler is None
        self.exec_mode = exec_mode
        #: Precompiled steady-state firing shape (see repro.machine.plan).
        self.plan: FiringPlan = compile_plan(node)
        # Quiet-span fast path: whole firings outside the error horizon run
        # in bulk.  Disabled under a tracer so the per-word path reproduces
        # event bytes exactly, and under a profiler so every firing is
        # individually classified.
        self._fast = exec_mode == "fast" and tracer is None and profiler is None
        #: Whole-quiet-frames engine (see _fire_quiet_frames): the frame
        #: plan of a guarded thread on the fast path whose guard has one
        #: frame domain at scale 1; ``None`` runs every frame per frame.
        self.frame_plan: FramePlan | None = None
        if (
            self._fast
            and isinstance(comm, GuardedCommPath)
            and comm.guard.single_frame_domain()
        ):
            self.frame_plan = compile_frame_plan(
                self.plan,
                firings_per_frame,
                comm.in_qids,
                comm.out_qids,
                frame_stall_cycles,
            )
        self.counters = ThreadCounters()
        if isinstance(comm, GuardedCommPath):
            # Share the guard's stats object so aggregation sees both.
            self.counters.commguard = comm.guard.stats
        self.done = False
        self.force_unblock = False
        self._timeout_mode = False  # sticky for the rest of the current firing
        self._gen: Iterator[None] = self._run()

    # -- scheduler interface ----------------------------------------------------

    def step(self) -> str:
        """Run until the thread blocks or finishes: "blocked" | "done"."""
        if self.done:
            return "done"
        try:
            next(self._gen)
        except StopIteration:
            self.done = True
            return "done"
        return "blocked"

    def progress_token(self) -> int:
        """Monotone counter that changes iff the thread did observable work."""
        c = self.counters
        return (
            c.committed_instructions
            + c.items_popped
            + c.items_pushed
            + c.commguard.qm_push_local
            + c.commguard.pads
            + c.commguard.discarded_items
            + c.commguard.timeouts
        )

    def spin(self, instructions: int) -> None:
        """Account blocked-spinning time and its error exposure."""
        self.counters.spin_instructions += instructions
        if self.profiler is not None:
            self.sim_now = self.profiler.segment(
                self.node.name, "blocked", self.sim_now, instructions
            )
        for event in self.injector.advance(instructions):
            if event.kind is ErrorKind.ADDRESS:
                self.comm.corrupt_management_state(self.injector.rng)

    # -- thread body --------------------------------------------------------------

    def _run(self) -> Iterator[None]:
        frame_plan = self.frame_plan
        n_frames = self.n_frames
        frame = 0
        while frame < n_frames:
            if frame_plan is not None:
                ran = self._fire_quiet_frames(n_frames - frame)
                if ran:
                    frame += ran
                    continue
            frame += 1
            self.comm.on_frame_start()
            self.counters.frame_computations += 1
            self.counters.stall_cycles += self.frame_stall_cycles
            if self.profiler is not None and self.frame_stall_cycles:
                self.sim_now = self.profiler.segment(
                    self.node.name, "stall", self.sim_now, self.frame_stall_cycles
                )
            while not self.comm.advance_frame_start():
                if self._consume_force_unblock():
                    break
                yield
            self._timeout_mode = False
            fast = self._fast
            for _firing in range(self.firings_per_frame):
                if fast and self._fire_quiet():
                    continue
                yield from self._fire()
        self.comm.on_end()
        while not self.comm.advance_end():
            if self._consume_force_unblock():
                break
            yield

    def _consume_force_unblock(self) -> bool:
        """One blocking operation timed out (Section 5.1's QM timeouts).

        Timeout mode stays on for the rest of the current firing so a thread
        whose peer is dead limps through the firing with pad/drop semantics
        instead of re-blocking on every word.
        """
        if self.force_unblock or self._timeout_mode:
            self.force_unblock = False
            self._timeout_mode = True
            self.counters.commguard.timeouts += 1
            if self.tracer is not None:
                self.tracer.emit(QMTimeout(thread=self.node.name))
            return True
        return False

    def _fire_quiet(self) -> bool:
        """One whole steady-state firing outside the error horizon.

        Eligibility (checked first, consuming nothing on failure):

        * the injector certifies the firing's instruction window as quiet
          (no error arrival can land inside it), and
        * the communication path certifies every pop and push of the firing
          completes without blocking or any guard-state transition.

        An eligible firing is, word for word, the firing the precise path
        would execute with zero injected events and zero blocked retries —
        so it can charge its counters in bulk and skip the per-word
        machinery.  The injector consumes the window with the identical
        countdown arithmetic ``advance()`` would use, keeping the RNG
        stream (and therefore everything downstream) bit-identical.

        Returns ``False`` when not provably quiet; the caller then runs
        the precise generator path for this firing.
        """
        plan = self.plan
        if not self.injector.quiet_windows(plan.cost, 1):
            return False
        comm = self.comm
        if not comm.can_fire_quiet(plan.input_rates, plan.output_rates):
            return False
        self.injector.consume_quiet(plan.cost)
        counters = self.counters
        node = self.node

        inputs: list[list[int]] = []
        for port, rate in enumerate(plan.input_rates):
            words = comm.pop_many(port, rate)
            if len(words) != rate:
                raise RuntimeError(
                    f"quiet firing of {node.name} under-popped port {port}: "
                    f"{len(words)} of {rate} words"
                )
            inputs.append(words)
        counters.items_popped += plan.total_inputs
        counters.memory.loads += plan.total_inputs + plan.memory_loads

        outputs = node.work(inputs)
        if len(outputs) != plan.n_outputs or any(
            len(port) != rate for port, rate in zip(outputs, plan.output_rates)
        ):
            raise RuntimeError(
                f"filter {node.name} produced wrong batch shape: "
                f"{[len(p) for p in outputs]} vs rates {node.output_rates}"
            )

        for port, rate in enumerate(plan.output_rates):
            if comm.push_many(port, outputs[port], 0) != rate:
                raise RuntimeError(
                    f"quiet firing of {node.name} under-pushed port {port}"
                )
        counters.items_pushed += plan.total_outputs
        counters.memory.stores += plan.total_outputs + plan.memory_stores

        counters.committed_instructions += plan.cost
        counters.firings += 1
        self._timeout_mode = False
        return True

    def _fire_quiet_frames(self, remaining: int) -> int:
        """Run up to *remaining* whole quiet frame computations as one bulk
        transfer; return how many ran (``0``: the per-frame path runs the
        next frame).

        Eligibility (checked first, consuming nothing on failure): the
        guard certifies K frames (:meth:`CommGuard.quiet_frames`: the
        Header Inserter idle, every Alignment Manager aligned in
        ``Rcv/Cmp`` with the K frames' clean headers and exact plain units
        at its queue front, room for K frames in every output queue), and
        the injector certifies the K × F firing windows as quiet.

        Each such frame is, unit for unit, the frame the per-frame path
        would run without yielding — boundary, header match and F quiet
        firings — so the span pops each input queue's K frames as one
        slice, calls ``work`` K × F times in order, appends each output
        queue's K frames with their headers in place, and charges the
        thread counters K times from the frame plan (the guard charges the
        K boundaries, the queues their publishes).  The injector consumes
        the K × F windows with one countdown subtraction each.  The span
        never yields, and the frame after it blocks exactly where the
        per-frame path would, so sweeps and wake order do not move.
        """
        frame_plan = self.frame_plan
        guard = self.comm.guard
        k = guard.quiet_frames(frame_plan, remaining)
        if not k:
            return 0
        plan = self.plan
        firings = frame_plan.firings
        k = min(k, self.injector.quiet_windows(plan.cost, k * firings) // firings)
        if not k:
            return 0
        self.injector.consume_quiet(plan.cost, k * firings)
        node = self.node

        ports = []
        for units, plain, rate in zip(
            guard.pop_frames(frame_plan, k), frame_plan.in_units, plan.input_rates
        ):
            del units[:: plain + 1]  # the K headers; the plain units are contiguous
            ports.append(
                [units[start : start + rate] for start in range(0, len(units), rate)]
            )
        if ports:
            batches = map(list, zip(*ports))
        else:
            batches = [[] for _ in range(k * firings)]

        work = node.work
        results = [work(batch) for batch in batches]
        output_rates = plan.output_rates
        for outputs in results:
            if tuple(map(len, outputs)) != output_rates:
                raise RuntimeError(
                    f"filter {node.name} produced wrong batch shape: "
                    f"{[len(p) for p in outputs]} vs rates {node.output_rates}"
                )
        produced = [
            list(chain.from_iterable(map(itemgetter(port), results)))
            for port in range(len(output_rates))
        ]
        guard.push_frames(frame_plan, k, produced)

        counters = self.counters
        counters.frame_computations += k
        counters.stall_cycles += k * frame_plan.stall_cycles
        counters.committed_instructions += k * frame_plan.instructions
        counters.firings += k * firings
        counters.items_popped += k * frame_plan.items_popped
        counters.items_pushed += k * frame_plan.items_pushed
        counters.memory.loads += k * frame_plan.loads
        counters.memory.stores += k * frame_plan.stores
        self._timeout_mode = False
        return k

    def _fire(self) -> Iterator[None]:
        node = self.node
        cost = node.instruction_cost()
        events = self.injector.advance(cost)
        plan = self._plan_errors(events)
        rng = self.injector.rng

        # 1. Pop inputs (with control-error count perturbations).
        batch = self._bulk_transfers
        inputs: list[list[int]] = []
        for port, rate in enumerate(node.input_rates):
            delta = plan.pop_deltas.get(port, 0)
            n = max(0, rate + delta)
            words: list[int] = []
            while len(words) < n:
                if batch:
                    got = self.comm.pop_many(port, n - len(words))
                    if got:
                        words.extend(got)
                        continue
                word = self.comm.pop(port)
                if word is None:
                    if self._consume_force_unblock():
                        word = 0
                    else:
                        yield
                        continue
                words.append(word)
            self.counters.items_popped += n
            self.counters.memory.loads += n
            if n < rate:
                words = words + [0] * (rate - n)
            elif n > rate:
                words = words[:rate]
            inputs.append(words)
        self.counters.memory.loads += node.memory_loads()

        # 2. Apply data/addressing effects on live input and state words.
        if plan.input_bitflips or plan.garbage_loads:
            flat_inputs = [
                (p, i) for p, port in enumerate(inputs) for i in range(len(port))
            ]
            for _ in range(plan.input_bitflips):
                if flat_inputs:
                    p, i = rng.choice(flat_inputs)
                    inputs[p][i] = flip_bit(inputs[p][i], rng.randrange(32))
            for _ in range(plan.garbage_loads):
                if flat_inputs:
                    p, i = rng.choice(flat_inputs)
                    inputs[p][i] = self.ppu.garbage_word(rng)
        for _ in range(plan.state_bitflips):
            state = node.state_words()
            if state:
                idx = rng.randrange(len(state))
                node.write_state_word(idx, flip_bit(state[idx], rng.randrange(32)))

        # 3. Compute.
        outputs = node.work(inputs)
        if len(outputs) != node.n_outputs or any(
            len(port) != rate for port, rate in zip(outputs, node.output_rates)
        ):
            raise RuntimeError(
                f"filter {node.name} produced wrong batch shape: "
                f"{[len(p) for p in outputs]} vs rates {node.output_rates}"
            )

        # 4. Apply output data effects and count perturbations; push.
        if plan.output_bitflips:
            flat_outputs = [
                (p, i) for p, port in enumerate(outputs) for i in range(len(port))
            ]
            for _ in range(plan.output_bitflips):
                if flat_outputs:
                    p, i = rng.choice(flat_outputs)
                    outputs[p][i] = flip_bit(outputs[p][i], rng.randrange(32))
        for port, rate in enumerate(node.output_rates):
            words = outputs[port]
            delta = plan.push_deltas.get(port, 0)
            n = max(0, rate + delta)
            if n < rate:
                words = words[:n]
            elif n > rate:
                filler = words[-1] if words else 0
                words = words + [filler] * (n - rate)
            i = 0
            while i < n:
                if batch:
                    pushed = self.comm.push_many(port, words, i)
                    if pushed:
                        i += pushed
                        continue
                if self.comm.push(port, words[i]):
                    i += 1
                elif self._consume_force_unblock():
                    i += 1  # timed out: drop the item
                else:
                    yield
            self.counters.items_pushed += n
            self.counters.memory.stores += n
        self.counters.memory.stores += node.memory_stores()

        self.counters.committed_instructions += cost
        self.counters.firings += 1
        self._timeout_mode = False
        if self.profiler is not None:
            # A firing that saw injector events is a "fire" segment; an
            # event-free one is the per-word spelling of a quiet firing
            # (the quiet-span fast path declines under a profiler, so
            # this is where quiet time is accounted).
            self.sim_now = self.profiler.segment(
                node.name,
                "fire" if events else "quiet",
                self.sim_now,
                cost,
                errors=len(events),
            )

    # -- error planning --------------------------------------------------------------

    def _plan_errors(self, events: list) -> _FiringPlan:
        plan = _FiringPlan()
        if not events:
            return plan
        node = self.node
        rng = self.injector.rng
        has_state = bool(node.state_words())
        for event in events:
            if event.kind is ErrorKind.DATA:
                targets = []
                if node.n_inputs:
                    targets.append("in")
                if node.n_outputs:
                    targets.append("out")
                if has_state:
                    targets.append("state")
                choice = rng.choice(targets) if targets else "out"
                if choice == "in":
                    plan.input_bitflips += 1
                elif choice == "state":
                    plan.state_bitflips += 1
                else:
                    plan.output_bitflips += 1
            elif event.kind is ErrorKind.CONTROL:
                # Perturb the item count of one random port of this firing.
                ports: list[tuple[str, int, int]] = [
                    ("pop", p, r) for p, r in enumerate(node.input_rates)
                ] + [("push", p, r) for p, r in enumerate(node.output_rates)]
                if not ports:
                    continue
                side, port, rate = rng.choice(ports)
                delta = self.ppu.draw_count_delta(rng, rate)
                target = plan.pop_deltas if side == "pop" else plan.push_deltas
                target[port] = self.ppu.clamp_count_delta(
                    target.get(port, 0) + delta, rate
                )
            elif not self.comm.corrupt_management_state(rng):  # ADDRESS
                # Pointer corruptions apply immediately; without corruptible
                # management state the error becomes a garbage load.
                plan.garbage_loads += 1
        return plan
