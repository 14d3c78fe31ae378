"""Scheduler tests: the WakeHub's wake routing and the stuck-sweep regime.

A wake made while thread ``i`` is stepping reaches a thread after ``i``
within the current sweep and any other thread in the next one (see
:mod:`repro.machine.scheduler`).  The run loop's results — ``sweeps``,
``forced_unblocks`` and the ``ForcedUnblock(thread, sweep)`` trace events —
are pinned by the golden run digests in ``test_golden_runs.py``.
"""

import json

from repro.machine.protection import ProtectionLevel
from repro.machine.scheduler import WakeHub
from tests.machine.test_golden_runs import (
    EXEC_MODES,
    GOLDEN_PATH,
    GoldenPoint,
    run_point,
)


class TestBitIdenticalResults:
    def test_timeout_heavy_run_matches(self):
        # mp3 under PPU_ONLY at 64k MTBE is the stuck-sweep regime: long
        # stretches of unproductive sweeps, spins and QM timeouts ending in
        # forced unblocks.  Both exec modes must reproduce the recorded entry.
        point = GoldenPoint("mp3", 0.25, ProtectionLevel.PPU_ONLY, 64_000.0, 0)
        expected = json.loads(GOLDEN_PATH.read_text())["points"][point.id]
        assert expected["forced_unblocks"] > 0, "expected forced unblocks here"
        for mode, config in EXEC_MODES.items():
            assert run_point(point, config) == expected, f"exec_mode={mode}"


class TestWakeHub:
    def test_wake_after_position_lands_in_current_sweep(self):
        hub = WakeHub(4)
        hub.ready_now = [False] * 4
        hub.producer_of[7] = 3
        hub.consumer_of[7] = 1
        hub.position = 1
        hub.on_pop(7)  # producer (3) sits after the stepping position
        assert hub.ready_now[3] and not hub.ready_next[3]

    def test_wake_at_or_before_position_lands_in_next_sweep(self):
        hub = WakeHub(4)
        hub.ready_now = [False] * 4
        hub.producer_of[7] = 0
        hub.consumer_of[7] = 2
        hub.position = 2
        hub.on_push(7)  # consumer (2) == position: already stepped
        hub.on_pop(7)  # producer (0) < position: already stepped
        assert not hub.ready_now[2] and hub.ready_next[2]
        assert not hub.ready_now[0] and hub.ready_next[0]

    def test_corrupt_wakes_both_endpoints(self):
        hub = WakeHub(3)
        hub.ready_now = [False] * 3
        hub.producer_of[0] = 0
        hub.consumer_of[0] = 2
        hub.position = 1
        hub.on_corrupt(0)
        assert hub.ready_now[2]  # after position: this sweep
        assert hub.ready_next[0]  # before position: next sweep

    def test_unknown_qid_is_ignored(self):
        hub = WakeHub(2)
        hub.on_push(99)
        hub.on_pop(99)
        hub.on_corrupt(99)
        assert hub.ready_next == [False, False]
