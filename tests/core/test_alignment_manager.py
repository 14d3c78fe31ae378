"""Scenario and property tests for the Alignment Manager.

The scenarios mirror Section 3's error taxonomy: extra items (AE_IE), lost
items (AE_IL), whole lost/extra frames (AE_F*), plus end-of-computation and
corrupt-header handling.  The hypothesis property enforces DESIGN.md
invariant 1: whatever bounded perturbation the producer suffers, the
consumer realigns at the next frame boundary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alignment_manager import AlignmentManager
from repro.core.ecc import ecc_encode
from repro.core.fsm import AlignmentState as S
from repro.core.header import (
    END_OF_COMPUTATION,
    HEADER_FLAG,
    header_unit,
    item_unit,
)
from repro.core.queue_manager import GuardedQueue, QueueGeometry
from repro.core.stats import CommGuardStats
from repro.observability import InMemoryTracer
from repro.observability.events import AlignmentAction

PAD = 0


def make_am(capacity=4096):
    stats = CommGuardStats()
    queue = GuardedQueue(0, QueueGeometry(workset_units=1, capacity_units=capacity))
    am = AlignmentManager(queue, stats, pad_word=PAD)
    return am, queue, stats


def feed(queue, units):
    stats = CommGuardStats()
    for unit in units:
        assert queue.push_unit(unit, stats)
    queue.flush(stats)


def frame(frame_id, values):
    return [header_unit(frame_id)] + [item_unit(v) for v in values]


class TestAlignedOperation:
    def test_pops_items_across_frames(self):
        am, queue, stats = make_am()
        feed(queue, frame(0, [10, 11]) + frame(1, [20, 21]))
        for fc, expected in [(0, [10, 11]), (1, [20, 21])]:
            am.on_new_frame_computation(fc)
            for value in expected:
                assert am.pop(fc) == value
        assert am.state is S.RCV_CMP
        assert stats.pads == 0 and stats.discarded_items == 0

    def test_blocks_on_empty_queue(self):
        am, queue, stats = make_am()
        am.on_new_frame_computation(0)
        assert am.pop(0) is None
        assert am.state is S.EXP_HDR  # state preserved across the block

    def test_resumes_after_block(self):
        am, queue, stats = make_am()
        am.on_new_frame_computation(0)
        assert am.pop(0) is None
        feed(queue, frame(0, [5]))
        assert am.pop(0) == 5


class TestExtraItems:
    """AE_IE: the producer pushed more items than the frame should hold."""

    def test_extra_items_discarded_at_boundary(self):
        am, queue, stats = make_am()
        feed(queue, frame(0, [10, 11, 99]) + frame(1, [20, 21]))
        am.on_new_frame_computation(0)
        assert am.pop(0) == 10
        assert am.pop(0) == 11
        # The consumer rolls to frame 1 while item 99 still sits in the
        # queue; expecting a header, it finds an item -> DiscFr -> discard
        # until header 1 -> aligned again.
        am.on_new_frame_computation(1)
        assert am.pop(1) == 20
        assert stats.discarded_items == 1
        assert stats.discard_events == 1
        assert am.state is S.RCV_CMP

    def test_whole_extra_frame_discarded(self):
        """A stale duplicate frame (past header) is drained (AE_FE)."""
        am, queue, stats = make_am()
        feed(
            queue,
            frame(0, [10]) + frame(0, [66]) + frame(1, [20]),
        )
        am.on_new_frame_computation(0)
        assert am.pop(0) == 10
        am.on_new_frame_computation(1)
        # Past header 0 + its item get discarded, then header 1 matches.
        assert am.pop(1) == 20
        assert stats.discarded_headers == 1
        assert stats.discarded_items == 1


class TestLostItems:
    """AE_IL / AE_FL: the producer pushed fewer items (or lost a frame)."""

    def test_missing_items_padded(self):
        am, queue, stats = make_am()
        feed(queue, frame(0, [10]) + frame(1, [20, 21]))  # frame 0 lost an item
        am.on_new_frame_computation(0)
        assert am.pop(0) == 10
        # Consumer still expects another frame-0 item but meets header 1:
        # future header -> Pdg, pop served with padding.
        assert am.pop(0) == PAD
        assert am.state is S.PDG
        assert am.pop(0) == PAD  # keeps padding without touching the queue
        am.on_new_frame_computation(1)  # matches the pending header
        assert am.state is S.RCV_CMP
        assert am.pop(1) == 20
        assert am.pop(1) == 21
        assert stats.pads == 2
        assert stats.pad_events == 1

    def test_whole_lost_frame_padded(self):
        am, queue, stats = make_am()
        feed(queue, frame(0, [10]) + frame(2, [30]))  # frame 1 never arrives
        am.on_new_frame_computation(0)
        assert am.pop(0) == 10
        am.on_new_frame_computation(1)
        assert am.pop(1) == PAD  # header 2 is a future header
        assert am.pop(1) == PAD
        am.on_new_frame_computation(2)
        assert am.pop(2) == 30
        assert am.state is S.RCV_CMP


class TestEndOfComputation:
    def test_eoc_pads_remaining_pops(self):
        am, queue, stats = make_am()
        feed(queue, frame(0, [10]) + [header_unit(END_OF_COMPUTATION)])
        am.on_new_frame_computation(0)
        assert am.pop(0) == 10
        assert am.pop(0) == PAD  # EOC reached
        assert am.producer_finished
        am.on_new_frame_computation(1)
        assert am.pop(1) == PAD  # empty queue + finished producer: pad

    def test_eoc_not_treated_as_matchable_header(self):
        am, queue, stats = make_am()
        feed(queue, [header_unit(END_OF_COMPUTATION)])
        am.on_new_frame_computation(0)
        assert am.pop(0) == PAD
        assert am.pending_header is None


class TestCorruptHeaders:
    def test_uncorrectable_header_dropped(self):
        am, queue, stats = make_am()
        bad = HEADER_FLAG | (ecc_encode(1) ^ 0b11)  # double-bit error
        feed(queue, [header_unit(0)] + [bad] + [item_unit(10)])
        am.on_new_frame_computation(0)
        assert am.pop(0) == 10
        assert stats.ecc_uncorrectable == 1
        assert stats.discarded_headers == 1

    def test_single_bit_corrupt_header_still_aligns(self):
        am, queue, stats = make_am()
        corrupt = header_unit(0) ^ (1 << 7)  # single payload bit flip
        feed(queue, [corrupt, item_unit(10)])
        am.on_new_frame_computation(0)
        assert am.pop(0) == 10
        assert stats.ecc_uncorrectable == 0


class TestAlignmentActionEvents:
    """Each realignment the AM performs is one ``AlignmentAction`` on the
    trace bus, stamped with the consumer's active frame."""

    def traced_am(self, units):
        am, queue, _ = make_am()
        am.tracer = InMemoryTracer()
        am.thread = "consumer"
        feed(queue, units)
        return am

    def action(self, action, active_fc, reason):
        return AlignmentAction("consumer", 0, action, active_fc, reason)

    def test_aligned_frame_emits_nothing(self):
        am = self.traced_am(frame(0, [1, 2]))
        am.on_new_frame_computation(0)
        assert [am.pop(0), am.pop(0)] == [1, 2]
        assert am.tracer.events == []

    def test_future_header_pads(self):
        am = self.traced_am(frame(0, [1]) + frame(1, [2, 3]))
        am.on_new_frame_computation(0)
        am.pop(0)
        assert am.pop(0) == PAD  # meets header 1
        assert am.tracer.events == [self.action("pad", 0, "future header 1 (data lost)")]

    def test_extra_item_is_discarded(self):
        am = self.traced_am(frame(0, [1, 99]) + frame(1, [2]))
        am.on_new_frame_computation(0)
        am.pop(0)
        am.on_new_frame_computation(1)
        assert am.pop(1) == 2
        assert am.tracer.events == [self.action("discard-item", 1, "extra item drained")]

    def test_end_of_computation_pads(self):
        am = self.traced_am([header_unit(END_OF_COMPUTATION)])
        am.on_new_frame_computation(0)
        assert am.pop(0) == PAD
        assert am.tracer.events == [self.action("pad", 0, "producer end-of-computation")]


@st.composite
def perturbed_streams(draw):
    """A producer stream of 8 frames with bounded per-frame perturbations."""
    frames = []
    for frame_id in range(8):
        items = [item_unit(100 * frame_id + i) for i in range(4)]
        perturbation = draw(
            st.sampled_from(["none", "extra", "lost", "drop_frame", "dup_frame"])
        )
        if perturbation == "extra":
            items += [item_unit(999)] * draw(st.integers(1, 3))
        elif perturbation == "lost":
            items = items[: draw(st.integers(0, 3))]
        if perturbation == "drop_frame":
            continue
        frames.append([header_unit(frame_id)] + items)
        if perturbation == "dup_frame":
            frames.append([header_unit(frame_id)] + items)
    return [u for f in frames for u in f]


class TestRealignmentProperty:
    @settings(max_examples=200, deadline=None)
    @given(perturbed_streams())
    def test_errors_are_ephemeral(self, units):
        """DESIGN.md invariant 1: after a clean trailing frame, the consumer
        of a perturbed stream is aligned again and reads that frame intact."""
        am, queue, stats = make_am()
        feed(queue, units + frame(8, [800, 801, 802, 803]))
        served: dict[int, list[int]] = {}
        for fc in range(9):
            am.on_new_frame_computation(fc)
            served[fc] = [am.pop(fc) for _ in range(4)]
            assert all(w is not None for w in served[fc])
        # The clean final frame must come through exactly.
        assert served[8] == [800, 801, 802, 803]
        assert am.state is S.RCV_CMP

    @settings(max_examples=100, deadline=None)
    @given(perturbed_streams())
    def test_never_deadlocks_or_serves_none_forever(self, units):
        am, queue, stats = make_am()
        feed(queue, units + [header_unit(END_OF_COMPUTATION)])
        for fc in range(9):
            am.on_new_frame_computation(fc)
            for _ in range(4):
                assert am.pop(fc) is not None  # stream ends with EOC: no blocks
