"""Whole quiet frames: K frame computations as one bulk transfer must be
observably identical to the same K frames on the per-frame path.

Each twin test builds two identical guarded threads over one input and
one output queue.  One runs K frames through the engine
(``NodeThread._fire_quiet_frames``); its twin runs them through
``on_new_frame_computation``, ``advance_header_insertions`` and per-word
``pop``/``push`` firings.  Every ``CommGuardStats`` field, the thread
counters, the Alignment Manager state, ``active_fc``, the injector and
the queue layouts (published and local units, header ordinals, peaks)
must then agree.  Every decline case must consume nothing.
"""

import dataclasses

import pytest

from repro.apps import build_app
from repro.core.config import CommGuardConfig
from repro.core.ecc import ecc_encode, flip_codeword_bit
from repro.core.fsm import AlignmentState
from repro.core.guard import CommGuard
from repro.core.header import END_OF_COMPUTATION, HEADER_FLAG, header_unit, item_unit
from repro.core.queue_manager import GuardedQueue, QueueGeometry
from repro.core.stats import CommGuardStats
from repro.machine.errors import ErrorInjector, ErrorKind, ErrorModel
from repro.machine.faults import StickyInjector
from repro.machine.plan import compile_frame_plan, compile_plan
from repro.machine.ppu import PPUModel
from repro.machine.protection import ProtectionLevel
from repro.machine.system import run_program
from repro.machine.thread import GuardedCommPath, NodeThread
from repro.streamit.filters import Filter, Identity

IN_QID, OUT_QID = 0, 1


def feed(queue, units):
    """Publish *units* on *queue* the way a producer's HI does: every
    header is followed by a boundary flush."""
    stats = CommGuardStats()
    for unit in units:
        assert queue.push_unit(unit, stats)
        if unit & HEADER_FLAG:
            queue.flush(stats)
    queue.flush(stats)


def frame(frame_id, plain, base=0):
    """One frame as its producer sends it: header then plain items."""
    return [header_unit(frame_id)] + [
        item_unit(base + 100 * frame_id + i) for i in range(plain)
    ]


def stream(first, count, plain):
    """*count* whole frames from *first*, closed by the next header."""
    units = []
    for frame_id in range(first, first + count):
        units += frame(frame_id, plain)
    return units + [header_unit(first + count)]


def make_thread(
    exec_mode,
    rate=1,
    firings=2,
    workset=4,
    out_capacity=256,
    countdown=None,
    injector=None,
    config=None,
    out_scale=None,
):
    """A guarded Identity thread between one input and one output queue.

    *countdown* places the injector's next error arrival that many
    instructions ahead (``None``: error-free)."""
    if injector is None:
        mtbe = None if countdown is None else 1e9
        injector = ErrorInjector(ErrorModel(mtbe=mtbe), seed=0, core_id=0)
        if countdown is not None:
            injector._countdown = countdown
    in_queue = GuardedQueue(IN_QID, QueueGeometry(workset, 4096))
    out_queue = GuardedQueue(OUT_QID, QueueGeometry(workset, out_capacity))
    guard = CommGuard(config)
    guard.attach_incoming(in_queue)
    guard.attach_outgoing(out_queue, frame_scale=out_scale)
    return NodeThread(
        node=Identity("mid", rate=rate),
        comm=GuardedCommPath(guard, [IN_QID], [OUT_QID]),
        n_frames=1000,
        firings_per_frame=firings,
        injector=injector,
        ppu=PPUModel(),
        frame_stall_cycles=14,
        exec_mode=exec_mode,
    )


def twins(units, warmup=0, **kw):
    """An engine thread and its per-frame twin, both fed *units* and run
    through *warmup* frames on the per-frame path."""
    pair = []
    for mode in ("fast", "precise"):
        thread = make_thread(mode, **kw)
        feed(in_queue(thread), units)
        for _ in range(warmup):
            run_frame(thread)
        pair.append(thread)
    return pair


def in_queue(thread):
    return thread.comm.guard.qm.incoming[IN_QID]


def out_queue(thread):
    return thread.comm.guard.qm.outgoing[OUT_QID]


def run_frame(thread):
    """One frame on the per-frame path, per-word pops and pushes."""
    thread.comm.on_frame_start()
    thread.counters.frame_computations += 1
    thread.counters.stall_cycles += thread.frame_stall_cycles
    assert thread.comm.advance_frame_start()
    for _ in range(thread.firings_per_frame):
        for _ in thread._fire():
            raise AssertionError("a per-frame firing blocked")


def layout(queue):
    return {
        "published": queue._published[queue._read :],
        "local": list(queue._producer_local),
        "header_offsets": list(queue._header_offsets),
        "local_headers": list(queue._local_headers),
        "published_total": queue._published_total,
        "popped_total": queue._popped_total,
        "peak_units": queue.peak_units,
    }


def snapshot(thread):
    guard = thread.comm.guard
    am = guard.alignment_manager(IN_QID)
    return {
        "counters": dataclasses.asdict(thread.counters),
        "am": (am.state, am.pending_header, am.producer_finished),
        "active_fc": guard.active_fc,
        "frames_completed": guard.frames_completed,
        "hi_idle": guard.hi.idle,
        "clock": thread.injector.clock,
        "countdown": thread.injector._countdown,
        "in": layout(in_queue(thread)),
        "out": layout(out_queue(thread)),
    }


def assert_declines(thread, remaining=8):
    before = snapshot(thread)
    assert thread._fire_quiet_frames(remaining) == 0
    assert snapshot(thread) == before


def assert_twins_agree(engine, twin, remaining, frames):
    """The engine runs *frames* of *remaining* frames in one span, and the
    twin reaches the same state running them on the per-frame path."""
    assert engine._fire_quiet_frames(remaining) == frames
    for _ in range(frames):
        run_frame(twin)
    assert snapshot(engine) == snapshot(twin)


class TestTwinFrames:
    @pytest.mark.parametrize("frames", [1, 3, 8])
    @pytest.mark.parametrize("rate,firings", [(1, 1), (2, 1), (1, 3)])
    @pytest.mark.parametrize("warmup", [0, 2])
    def test_engine_equals_per_frame_path(self, frames, rate, firings, warmup):
        plain = rate * firings
        engine, twin = twins(
            stream(0, warmup + frames, plain), warmup, rate=rate, firings=firings
        )
        assert_twins_agree(engine, twin, frames, frames)

    @pytest.mark.parametrize("workset", [1, 2, 3, 7, 256])
    def test_worksets(self, workset):
        # Full handoffs from words and at the header (the flush then finds
        # nothing to publish), and boundary refreshes of the header alone
        # or behind leftover words.
        engine, twin = twins(stream(0, 9, 2), 1, rate=2, firings=1, workset=workset)
        assert_twins_agree(engine, twin, 8, 8)

    def test_stops_at_the_remaining_frames(self):
        engine, twin = twins(stream(0, 6, 2), rate=1, firings=2)
        assert_twins_agree(engine, twin, 4, 4)

    def test_stops_before_a_frame_not_yet_published(self):
        # Frame 3's header is visible but nothing behind it: frames 0-2 run.
        engine, twin = twins(stream(0, 3, 2), rate=1, firings=2)
        assert_twins_agree(engine, twin, 10, 3)

    @pytest.mark.parametrize(
        "third",
        [
            pytest.param(frame(2, 3), id="extra-plain-unit"),
            pytest.param(frame(9, 2), id="future-header"),
        ],
    )
    def test_stops_at_the_first_frame_that_differs(self, third):
        units = frame(0, 2) + frame(1, 2) + third + stream(3, 1, 2)
        engine, twin = twins(units, rate=1, firings=2)
        assert_twins_agree(engine, twin, 10, 2)
        assert_declines(engine)

    def test_eoc_header_closes_the_last_frame(self):
        units = stream(0, 2, 2)[:-1] + [header_unit(END_OF_COMPUTATION)]
        engine, twin = twins(units, rate=1, firings=2)
        assert_twins_agree(engine, twin, 10, 2)

    def test_no_room_for_the_kth_frame(self):
        # Room for 2 frames of 1 header + 2 items, one unit short of 3.
        engine, twin = twins(stream(0, 5, 2), rate=2, firings=1, out_capacity=8)
        assert_twins_agree(engine, twin, 5, 2)
        assert_declines(engine)

    def test_error_horizon_inside_the_kth_frame(self):
        # 2 frames x 2 firings fit; the arrival lands in frame 3's windows.
        cost = compile_plan(Identity("mid")).cost
        engine, twin = twins(
            stream(0, 5, 2), rate=1, firings=2, countdown=4 * cost + cost / 2
        )
        assert_twins_agree(engine, twin, 5, 2)
        assert_declines(engine)


class TestDeclines:
    """Each case declines before consuming or charging anything."""

    @pytest.mark.parametrize(
        "front",
        [
            pytest.param(stream(0, 2, 2), id="past"),
            pytest.param(stream(2, 2, 2), id="future"),
            pytest.param(
                [header_unit(END_OF_COMPUTATION)] + stream(1, 2, 2)[1:], id="eoc"
            ),
            pytest.param(
                [HEADER_FLAG | flip_codeword_bit(ecc_encode(1), 3)]
                + stream(1, 2, 2)[1:],
                id="corrected",
            ),
            pytest.param(
                frame(1, 3) + stream(2, 1, 2), id="extra-plain-unit"
            ),
            pytest.param(
                frame(1, 1) + stream(2, 1, 2), id="missing-plain-unit"
            ),
            pytest.param(frame(1, 2), id="next-header-unpublished"),
            pytest.param([item_unit(9)] + stream(1, 2, 2), id="item-first"),
        ],
    )
    def test_front_layouts(self, front):
        # Frame 0 runs on the per-frame path; frame 1 is next.
        engine = make_thread("fast", rate=1, firings=2)
        feed(in_queue(engine), frame(0, 2) + front)
        run_frame(engine)
        assert_declines(engine)

    @pytest.mark.parametrize(
        "state",
        [
            AlignmentState.EXP_HDR,
            AlignmentState.DISC,
            AlignmentState.DISC_FR,
            AlignmentState.PDG,
        ],
    )
    def test_alignment_manager_states(self, state):
        engine = make_thread("fast")
        feed(in_queue(engine), stream(0, 4, 2))
        engine.comm.guard.alignment_manager(IN_QID).state = state
        assert_declines(engine)

    def test_finished_producer(self):
        engine = make_thread("fast")
        feed(in_queue(engine), stream(0, 4, 2))
        engine.comm.guard.alignment_manager(IN_QID).producer_finished = True
        assert_declines(engine)

    def test_pending_header_insertion(self):
        engine = make_thread("fast")
        feed(in_queue(engine), stream(0, 4, 2))
        engine.comm.guard.hi.insert_for_queue(OUT_QID, 0)
        assert_declines(engine)

    def test_no_room_for_one_frame(self):
        engine = make_thread("fast", rate=2, firings=1, out_capacity=2)
        feed(in_queue(engine), stream(0, 4, 2))
        assert_declines(engine)

    def test_error_horizon_inside_the_first_frame(self):
        engine = make_thread("fast", countdown=compile_plan(Identity("mid")).cost + 0.5)
        feed(in_queue(engine), stream(0, 4, 2))
        assert_declines(engine)

    def test_stuck_sticky_register(self):
        injector = StickyInjector(ErrorModel(mtbe=None), seed=0, core_id=0)
        injector._stuck_kind = ErrorKind.DATA
        engine = make_thread("fast", injector=injector)
        feed(in_queue(engine), stream(0, 4, 2))
        assert_declines(engine)

    @pytest.mark.parametrize(
        "kw",
        [
            pytest.param({"out_scale": 2}, id="two-domains"),
            pytest.param({"config": CommGuardConfig(frame_scale=4)}, id="frame-scale-4"),
        ],
    )
    def test_scaled_or_mixed_domains_never_enter(self, kw):
        thread = make_thread("fast", **kw)
        assert not thread.comm.guard.single_frame_domain()
        assert thread.frame_plan is None

    def test_precise_mode_never_enters(self):
        assert make_thread("precise").frame_plan is None


class TestChargeFrames:
    def test_per_frame_charges(self):
        # Two inputs, one output, 3 firings of rates (2, 1) -> (4,).
        firing = compile_plan(Filter("join", input_rates=(2, 1), output_rates=(4,)))
        plan = compile_frame_plan(firing, 3, [5, 6], [7], stall_cycles=14)
        assert plan.in_units == (6, 3) and plan.out_units == (12,)
        assert plan.instructions == 3 * firing.cost
        assert (plan.items_popped, plan.items_pushed) == (9, 12)
        guard = CommGuard()
        guard.charge_frames(2, plan.in_units, plan.out_units)
        charged = {
            name: value
            for name, value in dataclasses.asdict(guard.stats).items()
            if value
        }
        assert charged == {
            name: 2 * per_frame
            for name, per_frame in {
                "counter_ops": 4,
                "fsm_ops": 5,
                "ecc_ops": 3,
                "prepare_header": 1,
                "header_stores": 1,
                "header_loads": 2,
                "is_header_checks": 11,
                "qm_pop_local": 11,
                "qm_push_local": 13,
            }.items()
        }


class TestQuietWindows:
    @pytest.mark.parametrize("mtbe", [None, 3_000.0, 50_000.0])
    @pytest.mark.parametrize("n,limit", [(1, 5), (137, 40), (999, 12)])
    def test_equals_successive_quiet_steps(self, mtbe, n, limit):
        bulk = ErrorInjector(ErrorModel(mtbe=mtbe), seed=11, core_id=2)
        step = ErrorInjector(ErrorModel(mtbe=mtbe), seed=11, core_id=2)
        windows = bulk.quiet_windows(n, limit)
        stepped = 0
        while stepped < limit and step.quiet_windows(n, 1):
            step.consume_quiet(n)
            stepped += 1
        assert windows == stepped
        bulk.consume_quiet(n, windows)
        assert bulk.clock == step.clock
        assert bulk._countdown == step._countdown  # bit-equal float

    def test_sticky_overrides_the_one_primitive(self):
        injector = StickyInjector(ErrorModel(mtbe=None), seed=0, core_id=0)
        assert injector.quiet_windows(10, 4) == 4
        injector._stuck_kind = ErrorKind.CONTROL
        assert injector.quiet_windows(10, 4) == 0


#: The guarded DSP apps of the reduced reproduction (one firing per
#: frame, 1-4 words per port).
DSP_APPS = ("audiobeamformer", "channelvocoder", "complex-fir")


class TestEngineEngages:
    """A decline that fires on every frame would leave every equivalence
    test green; count the thread-frames the engine actually runs."""

    @pytest.mark.parametrize("app_name", DSP_APPS)
    def test_most_thread_frames_run_through_the_engine(self, app_name, monkeypatch):
        ran = []
        engine = NodeThread._fire_quiet_frames

        def spy(thread, remaining):
            frames = engine(thread, remaining)
            ran.append(frames)
            return frames

        monkeypatch.setattr(NodeThread, "_fire_quiet_frames", spy)
        app = build_app(app_name, scale=0.05)
        result = run_program(app.program, ProtectionLevel.COMMGUARD, mtbe=None, seed=0)
        total = sum(c.frame_computations for c in result.thread_counters.values())
        assert sum(ran) >= 0.9 * total
