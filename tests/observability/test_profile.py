"""Tests for the deep-profiling recorders.

Unit coverage of :class:`SimProfiler` (segment coalescing, bounded
buffers, canonical serialization) and :class:`EngineProfiler` (span
nesting, retro-recorded leaves), plus the two machine-level contracts:
a profiled run's measurements are bit-identical to an unprofiled run,
and the recorded simulated-time timeline is byte-identical across
execution modes.
"""

import json

import pytest

from repro.apps.registry import build_app
from repro.machine.protection import ProtectionLevel
from repro.machine.system import SystemConfig, run_program
from repro.observability.profile import (
    EngineProfiler,
    ProfileSession,
    Segment,
    SimProfiler,
    engine_span,
)


class TestSegments:
    def test_segment_advances_the_clock(self):
        p = SimProfiler()
        p.register_thread("t")
        assert p.segment("t", "fire", 0, 10) == 10
        assert p.segment("t", "fire", 10, 3) == 13

    def test_zero_length_segments_are_dropped(self):
        p = SimProfiler()
        p.register_thread("t")
        assert p.segment("t", "quiet", 5, 0) == 5
        assert p.threads["t"] == []

    def test_contiguous_coalescible_kinds_merge(self):
        p = SimProfiler()
        p.register_thread("t")
        now = p.segment("t", "quiet", 0, 10)
        now = p.segment("t", "quiet", now, 5)
        p.segment("t", "quiet", now, 1)
        assert p.threads["t"] == [Segment("quiet", 0, 16, count=3)]

    def test_fire_segments_never_merge(self):
        p = SimProfiler()
        p.register_thread("t")
        now = p.segment("t", "fire", 0, 10, errors=1)
        p.segment("t", "fire", now, 10)
        assert len(p.threads["t"]) == 2

    def test_non_contiguous_segments_do_not_merge(self):
        p = SimProfiler()
        p.register_thread("t")
        p.segment("t", "blocked", 0, 4)
        p.segment("t", "blocked", 10, 4)  # gap: a fire was dropped between
        assert len(p.threads["t"]) == 2

    def test_kind_change_breaks_a_coalesced_run(self):
        p = SimProfiler()
        p.register_thread("t")
        now = p.segment("t", "quiet", 0, 4)
        now = p.segment("t", "blocked", now, 2)
        p.segment("t", "quiet", now, 4)
        assert [s.kind for s in p.threads["t"]] == ["quiet", "blocked", "quiet"]

    def test_errors_accumulate_across_a_merge(self):
        p = SimProfiler()
        p.register_thread("t")
        now = p.segment("t", "stall", 0, 4, errors=1)
        p.segment("t", "stall", now, 4, errors=2)
        assert p.threads["t"] == [Segment("stall", 0, 8, count=2, errors=3)]

    def test_overflow_is_counted_not_silent(self):
        p = SimProfiler(max_segments=2)
        p.register_thread("t")
        now = 0
        for _ in range(4):
            now = p.segment("t", "fire", now, 5)
        assert len(p.threads["t"]) == 2
        assert p.dropped_segments == 2


class TestQueueSamples:
    def test_samples_keyed_by_per_queue_seq(self):
        p = SimProfiler()
        p.queue_sample(3, 1)
        p.queue_sample(7, 4)
        p.queue_sample(3, 2)
        assert p.queues[3] == [(0, 1), (1, 2)]
        assert p.queues[7] == [(0, 4)]

    def test_sample_overflow_is_counted(self):
        p = SimProfiler(max_samples=1)
        p.queue_sample(0, 1)
        p.queue_sample(0, 2)
        assert p.queues[0] == [(0, 1)]
        assert p.dropped_samples == 1


class TestSerialization:
    def test_register_thread_is_idempotent(self):
        p = SimProfiler()
        p.register_thread("t", {"cost": 5})
        p.segment("t", "fire", 0, 1)
        p.register_thread("t")
        assert len(p.threads["t"]) == 1
        assert p.thread_meta["t"] == {"cost": 5}

    def test_marks_round_trip(self):
        p = SimProfiler()
        p.register_thread("t")
        p.mark("t", "forced-unblock", 42)
        assert p.to_dict()["marks"] == {
            "t": [{"label": "forced-unblock", "at": 42}]
        }

    def test_to_json_bytes_is_canonical(self):
        p = SimProfiler()
        p.register_thread("t", {"cost": 1})
        p.segment("t", "fire", 0, 9, errors=1)
        p.queue_sample(2, 3)
        raw = p.to_json_bytes()
        assert raw.endswith(b"\n")
        doc = json.loads(raw)
        assert doc["version"] == 1
        assert doc["queues"] == {"2": [{"seq": 0, "occupancy": 3}]}
        # Canonical form: sorted keys, compact separators, ascii.
        assert raw == (
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("ascii")

    def test_empty_marks_are_omitted(self):
        p = SimProfiler()
        p.register_thread("t")
        assert p.to_dict()["marks"] == {}


class TestEngineProfiler:
    def test_spans_nest(self):
        e = EngineProfiler()
        with e.span("sweep", points=2):
            with e.span("execute"):
                pass
        assert [s.name for s in e.roots] == ["sweep"]
        root = e.roots[0]
        assert root.args == {"points": 2}
        assert [c.name for c in root.children] == ["execute"]
        assert root.duration is not None and root.duration >= 0

    def test_record_lands_under_the_open_span(self):
        e = EngineProfiler()
        with e.span("execute"):
            e.record("run", 0.25, app="fft")
        (run,) = e.roots[0].children
        assert run.name == "run"
        assert run.duration == pytest.approx(0.25, abs=1e-6)

    def test_events_and_to_dict(self):
        e = EngineProfiler()
        e.event("cache-hit", app="fft")
        doc = e.to_dict()
        assert doc["events"][0]["name"] == "cache-hit"
        assert doc["events"][0]["args"] == {"app": "fft"}
        assert doc["spans"] == []

    def test_engine_span_is_noop_without_a_profiler(self):
        with engine_span(None, "anything") as node:
            assert node is None

    def test_engine_span_delegates(self):
        e = EngineProfiler()
        with engine_span(e, "sweep") as node:
            assert node is e.roots[0]


# -- machine-level contracts ---------------------------------------------------

APP_SCALE = 0.05
MTBE = 100_000
SEED = 3


@pytest.fixture(scope="module")
def fft_app():
    return build_app("fft", scale=APP_SCALE)


def profiled_run(app, exec_mode="fast", profiler=None):
    return run_program(
        app.program,
        ProtectionLevel.COMMGUARD,
        mtbe=MTBE,
        seed=SEED,
        system_config=SystemConfig(exec_mode=exec_mode),
        profiler=profiler,
    )


class TestDeterminism:
    def test_profiled_run_is_bit_identical_to_unprofiled(self, fft_app):
        plain = profiled_run(fft_app)
        sim = SimProfiler()
        profiled = profiled_run(fft_app, profiler=sim)
        assert profiled.errors_injected == plain.errors_injected
        assert profiled.committed_instructions == plain.committed_instructions
        assert profiled.execution_time() == plain.execution_time()
        assert profiled.outputs == plain.outputs
        assert profiled.sweeps == plain.sweeps
        assert sim.threads and any(sim.threads.values())

    def test_timeline_bytes_exec_mode_invariant(self, fft_app):
        timelines = []
        for exec_mode in ("fast", "precise"):
            sim = SimProfiler()
            profiled_run(fft_app, exec_mode=exec_mode, profiler=sim)
            timelines.append(sim.to_json_bytes())
        assert timelines[0] == timelines[1]

    def test_timeline_bytes_repeatable(self, fft_app):
        timelines = []
        for _ in range(2):
            sim = SimProfiler()
            profiled_run(fft_app, profiler=sim)
            timelines.append(sim.to_json_bytes())
        assert timelines[0] == timelines[1]

    def test_thread_meta_carries_firing_shapes(self, fft_app):
        sim = SimProfiler()
        profiled_run(fft_app, profiler=sim)
        assert set(sim.thread_meta) == set(sim.threads)
        for meta in sim.thread_meta.values():
            assert meta["cost"] >= 0
            assert isinstance(meta["input_rates"], list)


class TestProfileSession:
    def test_bundles_both_recorders(self):
        session = ProfileSession()
        assert isinstance(session.sim, SimProfiler)
        assert isinstance(session.engine, EngineProfiler)
