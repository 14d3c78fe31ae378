"""Bulk queue operations must be observably identical to per-word loops.

These are the batched transfers and the quiet-span fast path of
``exec_mode="fast"``; each test runs the same word sequence through the
per-word reference API and the bulk API and compares every observable:
returned words, queue state, stats charges, peaks, FSM state, and the
tracer fallback contract.
"""

import dataclasses
import random

import pytest

from repro.core.alignment_manager import AlignmentManager
from repro.core.ecc import ecc_encode, flip_codeword_bit
from repro.core.fsm import AlignmentState
from repro.core.header import (
    END_OF_COMPUTATION,
    HEADER_FLAG,
    header_unit,
    item_unit,
)
from repro.core.queue_manager import GuardedQueue, QueueGeometry
from repro.core.stats import CommGuardStats
from repro.machine.queues import ReliableQueue, SoftwareQueue
from repro.observability import InMemoryTracer


class TestReliableQueueBulk:
    def test_push_many_matches_push_loop(self):
        reference, bulk = ReliableQueue(16), ReliableQueue(16)
        words = list(range(10))
        for word in words:
            assert reference.push(word)
        assert bulk.push_many(words, 0) == 10
        assert bulk.occupancy() == reference.occupancy() == 10
        assert bulk.peak_occupancy == reference.peak_occupancy == 10
        assert [bulk.pop() for _ in range(10)] == words

    def test_push_many_respects_capacity(self):
        queue = ReliableQueue(4)
        assert queue.push_many(list(range(10)), 0) == 4
        assert queue.push_many(list(range(10)), 4) == 0  # full: block

    def test_push_many_declines_with_tracer(self):
        queue = ReliableQueue(8)
        queue.tracer = InMemoryTracer()
        assert queue.push_many([1, 2, 3], 0) == 0

    def test_pop_many_matches_pop_loop(self):
        queue = ReliableQueue(16)
        for word in range(8):
            queue.push(word)
        assert queue.pop_many(3) == [0, 1, 2]
        assert queue.pop_many(100) == [3, 4, 5, 6, 7]
        assert queue.pop_many(1) == []

    def test_pop_many_compacts_like_pop(self):
        queue = ReliableQueue(10_000)
        queue.push_many(list(range(5000)), 0)
        assert queue.pop_many(4200) == list(range(4200))
        assert queue._read == 0  # compacted
        assert queue.pop_many(10) == list(range(4200, 4210))


class TestSoftwareQueueBulk:
    def test_push_pop_roundtrip_matches(self):
        reference, bulk = SoftwareQueue(16), SoftwareQueue(16)
        words = [7, 8, 9, 10]
        for word in words:
            reference.push(word)
        bulk.push_many(words, 0)
        assert (bulk.head, bulk.tail) == (reference.head, reference.tail)
        assert bulk._buffer == reference._buffer
        assert bulk.pop_many(4) == [reference.pop() for _ in range(4)]
        assert (bulk.head, bulk.tail) == (reference.head, reference.tail)

    def test_pop_many_replays_stale_slots_after_corruption(self):
        reference, bulk = SoftwareQueue(8), SoftwareQueue(8)
        for queue in (reference, bulk):
            for word in range(6):
                queue.push(word)
            queue.head = (queue.head - (1 << 20)) & 0xFFFFFFFF  # corrupt view
        expected = [reference.pop() for _ in range(5)]
        assert bulk.pop_many(5) == expected
        assert bulk.head == reference.head

    def test_push_many_blocked_when_corrupt_full_view(self):
        queue = SoftwareQueue(8)
        queue.tail = (queue.head + (1 << 10)) & 0xFFFFFFFF  # looks over-full
        assert queue.push_many([1, 2], 0) == 0

    @staticmethod
    def _ring_twins(rng, state):
        """Two identical queues of a random capacity in one pointer state."""
        capacity = rng.randint(1, 960)
        if state == "zero":
            head = tail = 0
        elif state == "near-wrap":  # both pointers within 2 x capacity of 2**32
            head = (1 << 32) - rng.randint(1, 2 * capacity)
            tail = head + rng.randint(0, capacity)
        else:  # a corrupted view: tail behind head, occupancy ~2**32
            head = rng.getrandbits(32)
            tail = head - rng.randint(1, 4 * capacity)
        buffer = [rng.getrandbits(32) for _ in range(capacity)]
        twins = SoftwareQueue(capacity), SoftwareQueue(capacity)
        for queue in twins:
            queue.head, queue.tail = head & 0xFFFFFFFF, tail & 0xFFFFFFFF
            queue._buffer = list(buffer)
        return twins

    @pytest.mark.parametrize("state", ["zero", "near-wrap", "corrupt"])
    def test_bulk_equals_per_word_across_both_wraps(self, state):
        """Seeded differential: slices end at the end of the ring and at the
        2**32 pointer wrap, and a corrupted view replays the ring more than
        once; the per-word loop is the reference for every observable."""
        rng = random.Random(f"software-queue-{state}")
        for _ in range(40):
            reference, bulk = self._ring_twins(rng, state)
            capacity = reference.capacity
            for _ in range(6):
                if rng.random() < 0.5:
                    words = [rng.getrandbits(34) for _ in range(rng.randint(0, 2 * capacity))]
                    start = rng.randint(0, len(words))
                    pushed = 0
                    while start + pushed < len(words) and reference.push(words[start + pushed]):
                        pushed += 1
                    assert bulk.push_many(words, start) == pushed
                else:
                    limit = rng.randint(1, 3 * capacity)
                    expected = []
                    while len(expected) < limit and (word := reference.pop()) is not None:
                        expected.append(word)
                    assert bulk.pop_many(limit) == expected
                assert (bulk.head, bulk.tail) == (reference.head, reference.tail)
                assert bulk._buffer == reference._buffer
                assert bulk.peak_occupancy == reference.peak_occupancy


def make_guarded(workset=4, capacity=64):
    return GuardedQueue(0, QueueGeometry(workset_units=workset, capacity_units=capacity))


class TestGuardedQueueBulk:
    def test_push_items_matches_push_unit_sequence(self):
        reference, bulk = make_guarded(), make_guarded()
        ref_stats, bulk_stats = CommGuardStats(), CommGuardStats()
        words = list(range(11))
        for word in words:
            assert reference.push_unit(item_unit(word), ref_stats)
        assert bulk.push_items(words, 0, bulk_stats) == 11
        assert bulk_stats == ref_stats  # same publishes, ECC charges, locals
        assert bulk.visible_units() == reference.visible_units()
        assert bulk.unpublished_units() == reference.unpublished_units()
        assert bulk.peak_units == reference.peak_units
        assert list(bulk._published) == list(reference._published)

    def test_push_items_respects_capacity(self):
        queue = make_guarded(workset=4, capacity=6)
        stats = CommGuardStats()
        assert queue.push_items(list(range(10)), 0, stats) == 6
        assert queue.push_items(list(range(10)), 6, stats) == 0  # full: block

    def test_push_items_declines_with_tracer(self):
        queue = make_guarded()
        queue.tracer = InMemoryTracer()
        assert queue.push_items([1, 2, 3], 0, CommGuardStats()) == 0

    def test_pop_plain_items_stops_at_header_uncharged(self):
        queue = make_guarded(workset=2)
        stats = CommGuardStats()
        for word in (1, 2):
            queue.push_unit(item_unit(word), stats)
        queue.push_unit(header_unit(1), stats)
        queue.push_unit(item_unit(3), stats)
        queue.flush(stats)
        consumer = CommGuardStats()
        assert queue.pop_plain_items(10, consumer) == [item_unit(1), item_unit(2)]
        assert consumer.qm_pop_local == 2
        assert consumer.header_loads == 0  # header untouched, uncharged
        # The header is still at the front for the per-word FSM path.
        assert queue.pop_unit(consumer) == header_unit(1)

    def test_pop_plain_items_empty_queue(self):
        queue = make_guarded()
        assert queue.pop_plain_items(5, CommGuardStats()) == []

    def test_front_header_and_plain_units_behind_it(self):
        queue = make_guarded(workset=2)
        stats = CommGuardStats()
        for unit in (item_unit(1), header_unit(1), item_unit(2), item_unit(3),
                     header_unit(2), item_unit(4)):
            queue.push_unit(unit, stats)
        queue.flush(stats)
        assert queue.front_header() is None  # a plain unit is in front
        queue.pop_unit(stats)
        assert queue.front_header() == header_unit(1)
        assert queue.plain_units_behind_front_header() == 2
        for _ in range(3):
            queue.pop_unit(stats)
        assert queue.front_header() == header_unit(2)
        assert queue.plain_units_behind_front_header() == 1  # up to the end


def guarded_am(units):
    """An AM over a queue holding *units* (all published)."""
    queue = make_guarded(workset=4, capacity=256)
    feeder = CommGuardStats()
    for unit in units:
        assert queue.push_unit(unit, feeder)
    queue.flush(feeder)
    return AlignmentManager(queue, CommGuardStats())


def frame_units(frame_id, words):
    return [header_unit(frame_id)] + [item_unit(w) for w in words]


class TestAlignmentManagerBoundaryBlock:
    """``pop_block`` at an aligned frame boundary (``ExpHdr`` with the
    clean header of ``active_fc`` in front) equals the same number of
    per-word ``pop`` calls on a twin AM; anything else declines untouched."""

    STREAM = (
        frame_units(0, [10, 11]) + frame_units(1, [20, 21, 22]) + frame_units(2, [30])
    )

    @pytest.mark.parametrize("limit", [1, 2, 3, 8])
    def test_boundary_block_equals_per_word_pops(self, limit):
        bulk = guarded_am(self.STREAM)
        word = guarded_am(self.STREAM)
        for am in (bulk, word):
            am.on_new_frame_computation(0)
            assert am.pop(0) == 10 and am.pop(0) == 11
            am.on_new_frame_computation(1)
            assert am.state is AlignmentState.EXP_HDR
        assert bulk.block_units(1) == 3  # only 3 plain units follow
        served = bulk.pop_block(limit, 1)
        assert served == [word.pop(1) for _ in served]
        assert served == [20, 21, 22][:limit]
        assert bulk._stats == word._stats  # every CommGuardStats field
        assert bulk.state is word.state is AlignmentState.RCV_CMP
        assert bulk._queue.visible_units() == word._queue.visible_units()

    @pytest.mark.parametrize(
        "front",
        [
            pytest.param(frame_units(0, [1, 2]), id="past"),
            pytest.param(frame_units(2, [1, 2]), id="future"),
            pytest.param([header_unit(END_OF_COMPUTATION), item_unit(1)], id="eoc"),
            pytest.param(
                [HEADER_FLAG | flip_codeword_bit(ecc_encode(1), 5), item_unit(1)],
                id="corrected",
            ),
            pytest.param(frame_units(1, []) + frame_units(2, [1]), id="header-next"),
            pytest.param(frame_units(1, []), id="nothing-behind"),
            pytest.param([item_unit(9)] + frame_units(1, [1]), id="item-first"),
        ],
    )
    def test_declines_consuming_nothing(self, front):
        am = guarded_am(front)
        am.on_new_frame_computation(1)
        stats = dataclasses.replace(am._stats)
        visible = am._queue.visible_units()
        assert am.block_units(1) == 0
        assert am.pop_block(4, 1) == []
        assert am._stats == stats
        assert am._queue.visible_units() == visible
        assert am.state is AlignmentState.EXP_HDR

    def test_declines_in_discarding_and_padding_states(self):
        for state in (AlignmentState.DISC, AlignmentState.DISC_FR, AlignmentState.PDG):
            am = guarded_am(frame_units(1, [1]))
            am.state = state
            assert am.block_units(1) == 0
            assert am.pop_block(1, 1) == []
            assert am._queue.visible_units() == 2


class TestWakeHooks:
    """Queue mutations notify the installed wake hub (idempotent booleans)."""

    class _Hub:
        def __init__(self):
            self.calls = []

        def on_push(self, qid):
            self.calls.append(("push", qid))

        def on_pop(self, qid):
            self.calls.append(("pop", qid))

        def on_corrupt(self, qid):
            self.calls.append(("corrupt", qid))

    def test_reliable_queue_notifies(self):
        queue = ReliableQueue(8)
        queue.qid = 5
        queue.wake_hub = hub = self._Hub()
        queue.push(1)
        queue.pop()
        queue.push_many([2, 3], 0)
        queue.pop_many(2)
        assert hub.calls == [("push", 5), ("pop", 5), ("push", 5), ("pop", 5)]

    def test_software_queue_notifies_corrupt(self):
        queue = SoftwareQueue(8)
        queue.qid = 3
        queue.wake_hub = hub = self._Hub()
        queue.push(1)
        queue.corrupt_pointer(random.Random(0))
        assert ("corrupt", 3) in hub.calls

    def test_guarded_queue_notifies_on_publish_and_pop(self):
        queue = make_guarded(workset=2)
        queue.wake_hub = hub = self._Hub()
        stats = CommGuardStats()
        queue.push_unit(item_unit(1), stats)
        assert hub.calls == []  # local working set: nothing visible yet
        queue.push_unit(item_unit(2), stats)
        assert hub.calls == [("push", 0)]  # workset full -> publish
        queue.pop_unit(stats)
        assert hub.calls[-1] == ("pop", 0)
