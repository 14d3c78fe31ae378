"""Quiet spans: n firings certified at once, computed with one ``work_many``.

A raw-queue (unguarded) thread's frame boundaries do no work, so its
quiet spans run on across them; the thread counters must equal the
per-word oracle's (``exec_mode="precise"``).  A span moves n firings'
words with one bulk queue operation per port, which must act like n
operations of one firing's words even on a software queue whose pointers
an error corrupted.  And the engine must make the span calls the change
was for: at least 5x fewer ``work``/``work_many`` calls than firings over
the smoke tier's campaign.
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.machine.errors import ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.queues import SoftwareQueue
from repro.machine.system import SystemConfig, run_program
from repro.machine.thread import NodeThread, RawCommPath
from repro.streamit.builders import pipeline
from repro.streamit.filters import Identity, IntSink, IntSource
from repro.streamit.program import StreamProgram

RAW_LEVELS = (
    ProtectionLevel.ERROR_FREE,
    ProtectionLevel.PPU_ONLY,
    ProtectionLevel.PPU_RELIABLE_QUEUE,
)


def multirate_program(n_words: int = 600) -> StreamProgram:
    """The middle node fires twice per frame, so spans cross two-firing
    frames as well as one-firing ones."""
    graph = pipeline(
        [
            IntSource("src", list(range(n_words)), rate=2),
            Identity("mid", rate=1),
            IntSink("snk", rate=2),
        ]
    )
    return StreamProgram.compile(graph)


@pytest.fixture
def span_lengths(monkeypatch):
    """Record (thread, firings per frame, span length) for every span."""
    spans = []
    fire_quiet = NodeThread._fire_quiet

    def spy(self, limit):
        ran = fire_quiet(self, limit)
        if ran:
            spans.append((self.node.name, self.firings_per_frame, ran))
        return ran

    monkeypatch.setattr(NodeThread, "_fire_quiet", spy)
    return spans


def _run(program, protection, mtbe, exec_mode):
    model = None
    if mtbe is not None:
        model = ErrorModel(mtbe=mtbe)
    return run_program(
        program,
        protection,
        error_model=model,
        seed=3,
        system_config=SystemConfig(exec_mode=exec_mode),
    )


class TestRawSpansCrossFrames:
    @pytest.mark.parametrize("protection", RAW_LEVELS, ids=lambda p: p.value)
    def test_counters_equal_the_precise_oracle(self, protection, span_lengths):
        mtbe = None if protection is ProtectionLevel.ERROR_FREE else 20_000.0
        program = multirate_program()
        fast = _run(program, protection, mtbe, "fast")
        precise = _run(program, protection, mtbe, "precise")
        assert fast.outputs == precise.outputs
        assert fast.thread_counters == precise.thread_counters
        assert (fast.sweeps, fast.queue_peaks) == (precise.sweeps, precise.queue_peaks)
        for counters in fast.thread_counters.values():
            assert counters.frame_computations == program.n_frames
        # Spans did run past frame ends, at both frame sizes.
        crossed = {per_frame for _, per_frame, ran in span_lengths if ran > per_frame}
        assert crossed == {1, 2}

    def test_error_free_dsp_spans_run_many_frames(self, span_lengths):
        app = api.resolve_app("audiobeamformer", scale=0.05)
        fast = run_program(app.program, ProtectionLevel.ERROR_FREE)
        precise = run_program(
            app.program,
            ProtectionLevel.ERROR_FREE,
            system_config=SystemConfig(exec_mode="precise"),
        )
        assert fast.thread_counters == precise.thread_counters
        assert fast.outputs == precise.outputs
        steering = [ran for name, _, ran in span_lengths if name.startswith("steer")]
        assert max(steering) >= 16


class TestCorruptedSoftwareQueue:
    """One bulk operation of n firings' words == n operations of one
    firing's words, on twin queues whose pointers took the same flip."""

    @staticmethod
    def twins(seed: int) -> tuple[SoftwareQueue, SoftwareQueue]:
        queues = []
        for _ in range(2):
            rng = random.Random(seed)
            queue = SoftwareQueue(capacity=68)
            queue.push_many([rng.getrandbits(32) for _ in range(68)], 0)
            queue.pop_many(rng.randrange(68))
            queue.corrupt_pointer(rng)
            queues.append(queue)
        return queues[0], queues[1]

    @staticmethod
    def state(queue: SoftwareQueue):
        return queue.head, queue.tail, list(queue._buffer), queue.peak_occupancy

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("rate", [1, 3])
    def test_pop_span(self, seed, rate):
        bulk, stepped = self.twins(seed)
        path = RawCommPath([bulk], [], corruptible=True)
        n = path.quiet_firings((rate,), (), 200)
        assert n == min(200, bulk.occupancy() // rate)
        words = bulk.pop_many(n * rate)
        assert words == [w for _ in range(n) for w in stepped.pop_many(rate)]
        assert self.state(bulk) == self.state(stepped)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("rate", [1, 3])
    def test_push_span(self, seed, rate):
        bulk, stepped = self.twins(seed)
        path = RawCommPath([], [bulk], corruptible=True)
        n = path.quiet_firings((), (rate,), 200)
        room = bulk.capacity - bulk.occupancy()
        assert n == (room // rate if room > 0 else 0)
        words = [random.Random(seed).getrandbits(32) for _ in range(n * rate)]
        assert bulk.push_many(words, 0) == n * rate
        for firing in range(n):
            chunk = words[firing * rate : (firing + 1) * rate]
            assert stepped.push_many(chunk, 0) == rate
        assert self.state(bulk) == self.state(stepped)

    def test_flips_reach_both_views(self):
        """The twins cover astronomical occupancy (no room) and spans."""
        rooms = [
            (lambda q: q.capacity - q.occupancy())(self.twins(seed)[0])
            for seed in range(40)
        ]
        assert min(rooms) < 0 < max(rooms)


class TestSpanCalls:
    #: Firings over the smoke tier's cold campaign: one ``work`` call per
    #: firing before spans, and the firings are unchanged by them.
    SMOKE_FIRINGS = 40_404

    def test_smoke_campaign_makes_5x_fewer_work_calls(self, tmp_path, monkeypatch):
        calls = {"work": 0, "work_many": 0}
        firings = []
        depth = [0]

        def counting(name, bound):
            def spy(*args):
                if not depth[0]:
                    calls[name] += 1
                depth[0] += 1
                try:
                    return bound(*args)
                finally:
                    depth[0] -= 1

            return spy

        init = NodeThread.__init__

        def spied_init(self, node, *args, **kwargs):
            # The engine's calls only: a default work_many loops work.
            for name in calls:
                bound = getattr(type(node), name).__get__(node)
                node.__dict__[name] = counting(name, bound)
            init(self, node, *args, **kwargs)

        monkeypatch.setattr(NodeThread, "__init__", spied_init)
        run_spec = api.SimulationRunner.run_spec

        def counted(self, spec, *args, **kwargs):
            record, result = run_spec(self, spec, *args, **kwargs)
            firings.append(result.aggregate_counters().firings)
            return record, result

        monkeypatch.setattr(api.SimulationRunner, "run_spec", counted)
        api.reproduce(
            "smoke",
            store=str(tmp_path / "store.sqlite"),
            options=api.EngineOptions(jobs=1),
        )
        assert sum(firings) == self.SMOKE_FIRINGS
        assert 5 * (calls["work"] + calls["work_many"]) <= self.SMOKE_FIRINGS
