"""Per-thread CommGuard assembly (Figure 4).

One :class:`CommGuard` instance attaches to one thread/core.  It owns the
thread's frame-progress counters, the Header Inserter, one Alignment
Manager per incoming queue, the Queue Manager facade and the Queue
Information Table.

Frame-size scaling (Section 5.4) is implemented with *frame domains*: each
queue belongs to a domain with its own saturating counter and ``active-fc``
replica.  With the default application-wide frame definition every queue
shares the config's single scale, which degenerates to the paper's two
counters; supplying per-queue scales when attaching queues enables the
paper's "varying frame definitions across an application" extension (one
redundant active-fc counter per frame domain, as Section 5.4 prescribes).

The thread interacts with the guard through exactly the interface events of
Table 2: ``push``, ``pop`` and ``new frame computation`` (plus the
end-of-computation signal from the PPU protection module).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.alignment_manager import AlignmentManager
from repro.core.config import CommGuardConfig
from repro.core.header import END_OF_COMPUTATION, DataUnit, item_unit
from repro.core.header_inserter import HeaderInserter
from repro.core.qit import QITEntry, QueueInfoTable
from repro.core.queue_manager import GuardedQueue, QueueManager
from repro.core.stats import CommGuardStats
from repro.words import WORD_MASK

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.plan import FramePlan


class _FrameDomain:
    """One frame domain: a saturating counter + an active-fc replica."""

    __slots__ = ("scale", "active_fc", "_invocations", "started")

    def __init__(self, scale: int) -> None:
        if scale < 1:
            raise ValueError("frame scale must be >= 1")
        self.scale = scale
        self.active_fc = 0
        self._invocations = 0
        self.started = False

    def on_frame_computation(self) -> bool:
        """Count one invocation; True when a domain frame boundary crossed."""
        self._invocations += 1
        if self.started and self._invocations < self.scale:
            return False
        self._invocations = 0
        if self.started:
            self.active_fc = (self.active_fc + 1) & WORD_MASK
        self.started = True
        return True


class CommGuard:
    """The reliable CommGuard modules attached to one PPU core/thread."""

    def __init__(self, config: CommGuardConfig | None = None) -> None:
        self.config = config or CommGuardConfig()
        self.stats = CommGuardStats()
        self.qit = QueueInfoTable()
        self.qm = QueueManager(self.stats)
        self.hi = HeaderInserter(self.qm, self.stats)
        self._ended = False
        self._ams: dict[int, AlignmentManager] = {}
        # qid -> domain; domains may be shared between queues of equal scale.
        self._domains: dict[int, _FrameDomain] = {}
        self._domains_by_scale: dict[int, _FrameDomain] = {}

    # -- wiring ---------------------------------------------------------------

    def _domain_for(self, frame_scale: int | None) -> _FrameDomain:
        scale = frame_scale or self.config.frame_scale
        if scale not in self._domains_by_scale:
            self._domains_by_scale[scale] = _FrameDomain(scale)
        return self._domains_by_scale[scale]

    def attach_incoming(
        self, queue: GuardedQueue, frame_scale: int | None = None
    ) -> AlignmentManager:
        am = AlignmentManager(queue, self.stats, pad_word=self.config.pad_word)
        self._ams[queue.qid] = am
        self._domains[queue.qid] = self._domain_for(frame_scale)
        self.qm.attach_incoming(queue)
        self.qit.add(
            QITEntry(qid=queue.qid, direction="in", queue=queue, alignment_manager=am)
        )
        return am

    def attach_outgoing(
        self, queue: GuardedQueue, frame_scale: int | None = None
    ) -> None:
        self.qm.attach_outgoing(queue)
        self._domains[queue.qid] = self._domain_for(frame_scale)
        self.qit.add(QITEntry(qid=queue.qid, direction="out", queue=queue))

    def alignment_manager(self, qid: int) -> AlignmentManager:
        return self._ams[qid]

    def bind_tracer(self, tracer, thread: str) -> None:
        """Point the guard's HI and AMs at a structured-event sink.

        Call after all queues are attached; *thread* is the owning thread's
        name, stamped on every emitted event.
        """
        self.hi.tracer = tracer
        self.hi.thread = thread
        for am in self._ams.values():
            am.tracer = tracer
            am.thread = thread

    # -- interface events (Table 2) ---------------------------------------------

    def on_new_frame_computation(self) -> None:
        """The PPU protection module reported a new frame computation.

        Every frame domain counts the invocation through its saturating
        counter; domains whose boundary is crossed bump their ``active-fc``
        replica, trigger header insertion on their outgoing edges and roll
        their incoming edges' AM expectations.
        """
        crossed: set[int] = set()
        for domain in self._domains_by_scale.values():
            self.stats.counter_ops += 1
            if domain.on_frame_computation():
                self.stats.counter_ops += 1
                crossed.add(id(domain))
        for qid, domain in self._domains.items():
            if id(domain) not in crossed:
                continue
            if qid in self._ams:
                self._ams[qid].on_new_frame_computation(domain.active_fc)
            else:
                self.hi.insert_for_queue(qid, domain.active_fc)

    def charge_frames(
        self, frames: int, in_units: tuple[int, ...], out_units: tuple[int, ...]
    ) -> None:
        """Charge *frames* whole aligned frames of a thread with one frame
        domain at scale 1, whose frames pop ``in_units[i]`` plain units
        from input queue ``i`` and push ``out_units[o]`` to output queue
        ``o``: per frame, exactly what :meth:`on_new_frame_computation`,
        the Header Inserter's insertion and push of one header per output
        queue, the Alignment Managers' roll and correct-header match per
        input queue, and the frame's plain pops and pushes charge.
        Working-set publishes are left to the queues, which charge them
        as they publish.
        """
        stats = self.stats
        n_in, n_out = len(in_units), len(out_units)
        pops = frames * (n_in + sum(in_units))
        # The domain's count and roll, then one counter update per AM roll.
        stats.counter_ops += frames * (2 + n_in)
        # Per AM: the roll to ExpHdr and the header match; per HI insertion.
        stats.fsm_ops += frames * (2 * n_in + n_out)
        # One ECC check per header popped, one encode per header prepared.
        stats.ecc_ops += frames * (n_in + n_out)
        stats.prepare_header += frames * n_out
        stats.header_stores += frames * n_out
        stats.header_loads += frames * n_in
        stats.is_header_checks += pops
        stats.qm_pop_local += pops
        stats.qm_push_local += frames * (n_out + sum(out_units))

    def on_end_of_computation(self) -> None:
        """The thread's outermost global scope exited (Section 4.4)."""
        if not self._ended:
            self._ended = True
            self.hi.on_end_of_computation()

    def push(self, qid: int, word: int) -> bool:
        """Push one item; ``False`` when blocked (retry later)."""
        return self.qm.push(qid, item_unit(word))

    def push_many(self, qid: int, words: list[int], start: int) -> int:
        """Bulk fast path: push as many of ``words[start:]`` as fit."""
        return self.qm.push_items(qid, words, start)

    def pop(self, qid: int) -> int | None:
        """Pop one item through the AM; ``None`` when blocked (retry later)."""
        return self._ams[qid].pop(self._domains[qid].active_fc)

    def pop_many(self, qid: int, limit: int) -> list[int]:
        """Bulk fast path: pop up to *limit* aligned plain items."""
        return self._ams[qid].pop_block(limit, self._domains[qid].active_fc)

    def quiet_pop_units(self, qid: int) -> int:
        """How many pops on *qid* would complete without blocking, padding,
        discarding or any FSM transition other than an aligned frame
        boundary's header match (quiet-span eligibility)."""
        return self._ams[qid].block_units(self._domains[qid].active_fc)

    def quiet_push_units(self, qid: int) -> int:
        """How many pushes on *qid* would complete without blocking
        (quiet-span eligibility)."""
        queue = self.qm.outgoing[qid]
        return max(0, queue.geometry.capacity_units - queue.total_units())

    def advance_header_insertions(self) -> bool:
        """Drain pending HI work; ``True`` when no insertions are pending.

        Pushes and pops of the thread must wait until this returns ``True``
        (the serializing dependency of Section 5.3).
        """
        return self.hi.advance()

    # -- whole quiet frames ------------------------------------------------------
    #
    # The fast path's frame engine: K consecutive frame computations of the
    # thread as one bulk transfer (NodeThread._fire_quiet_frames drives it).
    # Each frame has exactly the effect of the per-frame sequence —
    # on_new_frame_computation, advance_header_insertions, the aligned
    # header match and the firings' pops and pushes — with the boundary
    # charged K times by charge_frames.

    def single_frame_domain(self) -> bool:
        """True when all of the thread's queues share one frame domain at
        scale 1: the engine's static precondition.  Scaled frames and
        Section 5.4's mixed domains keep the per-frame path."""
        return list(self._domains_by_scale) == [1]

    def quiet_frames(self, plan: "FramePlan", limit: int) -> int:
        """How many of the thread's next frame computations, up to
        *limit*, the queues certify as whole quiet frames; ``0`` declines.
        Consumes nothing.

        Frame ``j`` of the span, with ``a`` the active-fc the next frame
        takes, qualifies when the Header Inserter has nothing pending;
        every Alignment Manager is in ``Rcv/Cmp`` with its producer
        running and finds exactly the clean header of ``a + j`` followed
        by the frame's plain units at its queue front (behind the frames
        before it); every output queue has room for the span's headers
        and plain units; and ``a + j`` is below the end-of-computation ID.
        """
        if not self.hi.idle:
            return 0
        domain = self._domains_by_scale[1]
        first = domain.active_fc + 1 if domain.started else 0
        limit = min(limit, END_OF_COMPUTATION - first)
        outgoing = self.qm.outgoing
        for qid, plain in zip(plan.out_qids, plan.out_units):
            queue = outgoing[qid]
            room = queue.geometry.capacity_units - queue.total_units()
            limit = min(limit, room // (plain + 1))
        if limit <= 0:
            return 0
        ams = self._ams
        for qid, plain in zip(plan.in_qids, plan.in_units):
            limit = ams[qid].whole_frames(first, limit, plain)
            if not limit:
                return 0
        return limit

    def pop_frames(self, plan: "FramePlan", frames: int) -> list[list[DataUnit]]:
        """Pop *frames* certified frames off every input queue: one slice
        per queue, in port order, headers included."""
        incoming = self.qm.incoming
        return [
            incoming[qid].pop_frames(frames, plain)
            for qid, plain in zip(plan.in_qids, plan.in_units)
        ]

    def push_frames(
        self, plan: "FramePlan", frames: int, outputs: list[list[int]]
    ) -> None:
        """Close a span of *frames* certified frames: append each output
        queue's headers and words (*outputs*, one flat list per port),
        roll the domain to the span's last frame, and charge the frames'
        boundaries.  Every Alignment Manager stays in ``Rcv/Cmp`` and the
        Header Inserter idle, as after the per-frame path."""
        domain = self._domains_by_scale[1]
        first = domain.active_fc + 1 if domain.started else 0
        stats = self.stats
        outgoing = self.qm.outgoing
        for qid, plain, words in zip(plan.out_qids, plan.out_units, outputs):
            outgoing[qid].push_frames(first, frames, words, plain, stats)
        domain.active_fc = first + frames - 1
        domain.started = True
        self.charge_frames(frames, plan.in_units, plan.out_units)

    # -- introspection ---------------------------------------------------------

    @property
    def active_fc(self) -> int:
        """The default domain's active-fc (the paper's single counter)."""
        domain = self._domains_by_scale.get(self.config.frame_scale)
        return domain.active_fc if domain else 0

    @property
    def frames_completed(self) -> int:
        """Frame boundaries crossed in the default domain so far."""
        domain = self._domains_by_scale.get(self.config.frame_scale)
        if domain is None:
            return 0
        return domain.active_fc + (1 if domain.started else 0)

    def reliable_storage_bits(self) -> int:
        """Section 5.5's reliable on-core storage estimate for this thread.

        Extra frame domains each add a redundant counter pair.
        """
        extra_domains = max(0, len(self._domains_by_scale) - 1)
        return self.qit.reliable_storage_bits() + extra_domains * 2 * 32
