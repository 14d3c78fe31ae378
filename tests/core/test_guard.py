"""Tests for the per-thread CommGuard assembly (Figure 4, Sections 4-5)."""

import pytest

from repro.core.config import CommGuardConfig
from repro.core.guard import CommGuard
from repro.core.queue_manager import GuardedQueue, QueueGeometry


def make_pair(frame_scale=1, capacity=4096):
    """A producer guard and consumer guard sharing one queue."""
    queue = GuardedQueue(0, QueueGeometry(workset_units=4, capacity_units=capacity))
    producer = CommGuard(CommGuardConfig(frame_scale=frame_scale))
    consumer = CommGuard(CommGuardConfig(frame_scale=frame_scale))
    producer.attach_outgoing(queue)
    consumer.attach_incoming(queue)
    return producer, consumer, queue


class TestActiveFc:
    def test_first_frame_is_zero(self):
        producer, _, _ = make_pair()
        producer.on_new_frame_computation()
        assert producer.active_fc == 0

    def test_increments_per_frame(self):
        producer, _, _ = make_pair()
        for expected in range(4):
            producer.on_new_frame_computation()
            producer.advance_header_insertions()
            assert producer.active_fc == expected

    def test_frame_scale_downsamples(self):
        """Section 5.4: with scale 2, active-fc bumps every 2nd invocation."""
        producer, _, _ = make_pair(frame_scale=2)
        fcs = []
        for _ in range(6):
            producer.on_new_frame_computation()
            producer.advance_header_insertions()
            fcs.append(producer.active_fc)
        assert fcs == [0, 0, 1, 1, 2, 2]

    def test_scaled_guard_inserts_fewer_headers(self):
        producer, _, queue = make_pair(frame_scale=4)
        for _ in range(8):
            producer.on_new_frame_computation()
            producer.advance_header_insertions()
        assert producer.stats.header_stores == 2


class TestEndToEnd:
    def test_producer_consumer_roundtrip(self):
        producer, consumer, _ = make_pair()
        for fc in range(3):
            producer.on_new_frame_computation()
            assert producer.advance_header_insertions()
            for i in range(4):
                assert producer.push(0, fc * 10 + i)
        producer.on_end_of_computation()
        assert producer.advance_header_insertions()
        received = []
        for fc in range(3):
            consumer.on_new_frame_computation()
            assert consumer.advance_header_insertions()
            received.extend(consumer.pop(0) for _ in range(4))
        assert received == [0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]
        assert consumer.stats.pads == 0

    def test_end_of_computation_is_idempotent(self):
        producer, _, queue = make_pair()
        producer.on_end_of_computation()
        producer.advance_header_insertions()
        stores = producer.stats.header_stores
        producer.on_end_of_computation()
        producer.advance_header_insertions()
        assert producer.stats.header_stores == stores


class TestQitIntegration:
    def test_duplicate_queue_rejected(self):
        guard = CommGuard()
        queue = GuardedQueue(0, QueueGeometry(1, 8))
        guard.attach_outgoing(queue)
        with pytest.raises(ValueError):
            guard.attach_incoming(queue)

    def test_storage_estimate_four_queues(self):
        """Section 5.5: ~82 bytes of reliable storage for 4 queues."""
        guard = CommGuard()
        for qid in range(4):
            queue = GuardedQueue(qid, QueueGeometry(1, 8))
            if qid % 2:
                guard.attach_incoming(queue)
            else:
                guard.attach_outgoing(queue)
        bits = guard.reliable_storage_bits()
        assert 70 * 8 <= bits <= 90 * 8

    def test_alignment_manager_lookup(self):
        _, consumer, queue = make_pair()
        assert consumer.alignment_manager(0) is not None
        assert 0 in consumer.qit


class TestConfigValidation:
    def test_rejects_bad_frame_scale(self):
        with pytest.raises(ValueError):
            CommGuardConfig(frame_scale=0)

    def test_rejects_bad_workset(self):
        with pytest.raises(ValueError):
            CommGuardConfig(workset_units=0)
