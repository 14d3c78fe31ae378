"""The Alignment Manager (AM), Section 4.2.

One AM instance guards one incoming queue of a consumer thread.  It answers
the thread's pop requests, classifying each data unit the QM returns against
the thread's ``active-fc`` and driving the Table 1 FSM; on misalignment it
*discards* queue data (to realign the communication with the computation) or
*pads* the thread's pops with a constant (to realign the computation with
the communication).

The public surface is two methods mirroring the FSM's two event sources:
:meth:`pop` for pop instructions and :meth:`on_new_frame_computation` for
frame-computation rollovers.
"""

from __future__ import annotations

from repro.core.ecc import EccError
from repro.core.fsm import AlignmentEvent, AlignmentState, transition
from repro.core.header import (
    END_OF_COMPUTATION,
    header_frame_id,
    header_unit,
    is_header_unit,
    unit_word,
)
from repro.core.queue_manager import GuardedQueue
from repro.core.stats import CommGuardStats
from repro.observability.events import AlignmentAction


class AlignmentManager:
    """Per-incoming-queue alignment checker and pad/discard engine."""

    def __init__(
        self,
        queue: GuardedQueue,
        stats: CommGuardStats,
        pad_word: int = 0,
    ) -> None:
        self._queue = queue
        self._stats = stats
        self._pad_word = pad_word
        self.state = AlignmentState.RCV_CMP
        #: Frame ID of the future header that sent us to Pdg (or None).
        self.pending_header: int | None = None
        #: True once the producer's end-of-computation header was seen.
        self.producer_finished = False
        #: Optional structured-event sink (set by the system builder) plus
        #: the (thread, qid) identity stamped on every emitted event.
        self.tracer = None
        self.thread = ""
        self.qid = queue.qid

    def _apply(self, event: AlignmentEvent) -> AlignmentState:
        """Run one FSM transition; return the state it left."""
        previous = self.state
        self.state = transition(previous, event)
        return previous

    # -- tracing -----------------------------------------------------------------

    def _emit_action(self, action: str, active_fc: int, reason: str) -> None:
        self.tracer.emit(
            AlignmentAction(
                thread=self.thread,
                qid=self.qid,
                action=action,
                active_fc=active_fc,
                reason=reason,
            )
        )

    # -- event: new frame computation ---------------------------------------

    def on_new_frame_computation(self, active_fc: int) -> None:
        """The local thread rolled over to frame *active_fc*."""
        self._stats.counter_ops += 1
        self._stats.fsm_ops += 1
        if self.state is AlignmentState.PDG:
            if self.pending_header is not None and active_fc >= self.pending_header:
                self._apply(AlignmentEvent.FC_MATCHED_HEADER)
                self.pending_header = None
        else:
            self._apply(AlignmentEvent.NEW_FRAME_COMPUTATION)

    # -- event: pop instruction ----------------------------------------------

    def pop(self, active_fc: int) -> int | None:
        """Serve one pop request of the local thread.

        Returns the word to hand to the thread, or ``None`` when the queue
        is empty and the request must block (the AM's state is preserved so
        a retry resumes exactly where it left off).

        The passive is-state-Pdg comparison at the top of Table 2's pop flow
        is folded into the pop datapath (a mode-bit check, not a separate
        hardware suboperation); only FSM *updates* are charged to the
        FSM/Counter series of Fig. 14.
        """
        if self.state is AlignmentState.PDG:
            self._stats.pads += 1
            if self.tracer is not None:
                self._emit_action("pad", active_fc, "padding until matched frame")
            return self._pad_word
        while True:
            unit = self._queue.pop_unit(self._stats)
            if unit is None:
                if self.producer_finished:
                    # Producer done and drained: every further pop pads.
                    self._stats.pads += 1
                    if self.tracer is not None:
                        self._emit_action("pad", active_fc, "producer finished")
                    return self._pad_word
                return None
            self._stats.is_header_checks += 1
            if not is_header_unit(unit):
                if self.state is AlignmentState.RCV_CMP:
                    return unit_word(unit)
                if self.state is AlignmentState.EXP_HDR:
                    self._apply(AlignmentEvent.RECEIVED_ITEM)
                    self._stats.fsm_ops += 1
                    self._stats.discard_events += 1
                self._stats.discarded_items += 1
                if self.tracer is not None:
                    self._emit_action(
                        "discard-item", active_fc, "extra item drained"
                    )
                continue
            # Header unit: ECC-check, then classify against active-fc.
            self._stats.ecc_ops += 1
            try:
                frame_id = header_frame_id(unit)
            except EccError:
                # Uncorrectable header: drop it; frame checking recovers at
                # the next boundary.
                self._stats.ecc_uncorrectable += 1
                self._stats.discarded_headers += 1
                if self.tracer is not None:
                    self._emit_action(
                        "discard-header", active_fc, "uncorrectable ECC"
                    )
                continue
            served = self._on_header(frame_id, active_fc)
            if served is not None:
                return served

    def pop_block(self, limit: int, active_fc: int) -> list[int]:
        """Bulk fast path: serve up to *limit* pops in one call.

        Two states qualify, with the producer still running:

        * the aligned steady state ``Rcv/Cmp``, where every plain item is
          simply checked and handed over, so a run of non-header units is
          charged and returned in bulk;
        * an aligned frame boundary: ``ExpHdr`` with the clean header of
          *active_fc* at the queue front and at least one plain unit
          behind it.  The header is consumed with exactly the charges and
          the ``Rcv/Cmp`` transition the per-word :meth:`pop` makes, then
          the plain units follow in bulk.

        Any other case — padding, draining, a past, future, end-of-
        computation or ECC-corrected header — returns ``[]`` having
        consumed nothing, and the per-word :meth:`pop` handles it with the
        full FSM semantics.  Observably identical to the equivalent pops.
        """
        if self.producer_finished:
            return []
        if self.state is AlignmentState.EXP_HDR:
            if self._queue.profiler is not None or not self._aligned_boundary(
                active_fc, 1
            ):
                return []
            stats = self._stats
            self._queue.pop_unit(stats)
            stats.is_header_checks += 1
            stats.ecc_ops += 1
            self._apply(AlignmentEvent.RECEIVED_CORRECT_HEADER)
            stats.fsm_ops += 1
        elif self.state is not AlignmentState.RCV_CMP:
            return []
        units = self._queue.pop_plain_items(limit, self._stats)
        self._stats.is_header_checks += len(units)
        # Plain item units are bare masked words (the header flag is the
        # only metadata bit, and pop_plain_items never returns headers), so
        # the units pass through without a per-word unit_word() transform.
        return units

    def can_pop_block(self, count: int, active_fc: int) -> bool:
        """True when :meth:`pop_block` would serve *count* words right now.

        The quiet-span fast path's pop-eligibility check: the producer must
        still be running and *count* plain units must be published ahead
        of any further header — at the queue front in ``Rcv/Cmp``, or
        behind the clean header of *active_fc* in ``ExpHdr``.  O(1).
        """
        if self.producer_finished:
            return False
        if self.state is AlignmentState.RCV_CMP:
            return self._queue.plain_visible_units() >= count
        return self.state is AlignmentState.EXP_HDR and self._aligned_boundary(
            active_fc, count
        )

    def whole_frames(self, first: int, limit: int, plain: int) -> int:
        """How many whole aligned frames, up to *limit*, the queue front
        holds for the frames ``first, first + 1, ...``: each the clean
        header of its frame followed by exactly *plain* plain units — the
        whole-quiet-frames engine's alignment check.

        Only ``Rcv/Cmp`` with the producer running qualifies: each frame
        then takes the roll to ``ExpHdr`` and the correct-header match
        back to ``Rcv/Cmp`` on the per-frame path, and nothing else.
        Consumes and charges nothing.
        """
        if self.producer_finished or self.state is not AlignmentState.RCV_CMP:
            return 0
        return self._queue.whole_frames(first, limit, plain)

    def _aligned_boundary(self, active_fc: int, count: int) -> bool:
        """The queue front is the clean (uncorrected) header of frame
        *active_fc* with at least *count* plain units published behind it.

        Comparing whole units is the ECC check of the per-word path: a
        codeword equal to ``ecc_encode(active_fc)`` decodes to *active_fc*
        with no correction, and any other codeword does not.
        """
        queue = self._queue
        return (
            active_fc != END_OF_COMPUTATION
            and queue.front_header() == header_unit(active_fc)
            and queue.plain_units_behind_front_header() >= count
        )

    def _on_header(self, frame_id: int, active_fc: int) -> int | None:
        """Drive the FSM for a received header; maybe serve padding."""
        if frame_id == END_OF_COMPUTATION:
            # Treated as a header no future frame computation of this run
            # matches: the producer is finished, all further pops pad.
            self.producer_finished = True
            self.pending_header = None
            self.state = AlignmentState.RCV_CMP
            self._stats.fsm_ops += 1
            self._stats.pads += 1
            if self.tracer is not None:
                self._emit_action("pad", active_fc, "producer end-of-computation")
            return self._pad_word
        if frame_id == active_fc:
            event = AlignmentEvent.RECEIVED_CORRECT_HEADER
        elif frame_id < active_fc:
            event = AlignmentEvent.RECEIVED_PAST_HEADER
        else:
            event = AlignmentEvent.RECEIVED_FUTURE_HEADER
        previous = self._apply(event)
        self._stats.fsm_ops += 1
        if event is AlignmentEvent.RECEIVED_FUTURE_HEADER:
            self.pending_header = frame_id
            if previous is not AlignmentState.PDG:
                self._stats.pad_events += 1
            self._stats.pads += 1
            if self.tracer is not None:
                self._emit_action(
                    "pad", active_fc, f"future header {frame_id} (data lost)"
                )
            return self._pad_word
        if event is AlignmentEvent.RECEIVED_PAST_HEADER:
            if previous is AlignmentState.RCV_CMP:
                self._stats.discard_events += 1
            self._stats.discarded_headers += 1
            if self.tracer is not None:
                self._emit_action(
                    "discard-header", active_fc, f"stale header {frame_id}"
                )
            return None  # keep draining
        if (
            event is AlignmentEvent.RECEIVED_CORRECT_HEADER
            and previous is AlignmentState.RCV_CMP
        ):
            # Duplicate header for the active frame: not in Table 1; benign,
            # discard and continue.
            self._stats.discarded_headers += 1
            if self.tracer is not None:
                self._emit_action(
                    "discard-header", active_fc, f"duplicate header {frame_id}"
                )
            return None
        # Correct header resolved ExpHdr/Disc/DiscFr: continue the loop to
        # fetch the actual item the thread asked for.
        return None

    # -- introspection ---------------------------------------------------------

    @property
    def aligned(self) -> bool:
        """True when no misalignment is being worked around."""
        return self.state in (AlignmentState.RCV_CMP, AlignmentState.EXP_HDR)
