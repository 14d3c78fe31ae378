"""Masked runs: a run whose every injected error is masked replays its
level's quiet run instead of simulating, and must equal the simulation.

A masked arrival changes only the injector's error counters, so a run no
unmasked error reaches computes what its (app, protection, CommGuard
config) level computes with no error process.  ``SimulationRunner``
keeps each level's first such run (its *quiet run*) and its record, and
hands the run to ``MulticoreSystem.build``, which certifies, with
``ErrorInjector.masked_arrivals``, that each arrival before every core's
final clock is masked; a certified machine gets no queue, thread or
CommGuard, and ``MulticoreSystem.run`` replays the quiet run.  These
tests hold the replay to the simulation it skips: records and
``RunResult`` fields (``core_clocks`` and the Prometheus bytes of the
metrics included) equal a run with no quiet run, over every app, level
and fault model; a spy proves the replays happen; the certification
primitive is checked against a twin injector fed the same windows; and
traced, profiled and precise runs always simulate.
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import EngineOptions, sweep
from repro.apps import APP_BUILDERS
from repro.core.guard import CommGuard
from repro.core.queue_manager import GuardedQueue
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import SimulationRunner
from repro.experiments.sweeps import MTBE_LADDER_QUALITY
from repro.machine.errors import ErrorInjector, ErrorModel
from repro.machine.faults import (
    FAULT_MODELS,
    BurstInjector,
    ControlFlowInjector,
    FaultModel,
    QueueStateInjector,
    StickyInjector,
    fault_model_names,
    register_fault_model,
)
from repro.machine.protection import ProtectionLevel
from repro.machine.queues import ReliableQueue, SoftwareQueue
from repro.machine.runstats import RunResult
from repro.machine.system import MulticoreSystem, SystemConfig, run_program
from repro.machine.thread import NodeThread
from repro.observability import JsonlTracer
from repro.observability.profile import SimProfiler

SCALE = 0.05
LEVELS = (
    ProtectionLevel.PPU_ONLY,
    ProtectionLevel.PPU_RELIABLE_QUEUE,
    ProtectionLevel.COMMGUARD,
)
SEEDS = range(6)

#: Replays each app's grid makes at least (measured: jpeg 102, mp3 108,
#: fft 105, complex-fir 105, audiobeamformer 48, channelvocoder 48).  The
#: DSP apps with many threads see an unmasked error in most runs.
MIN_REPLAYS = {
    "jpeg": 90,
    "mp3": 90,
    "fft": 90,
    "complex-fir": 90,
    "audiobeamformer": 40,
    "channelvocoder": 40,
}

#: Models whose injectors certify masked runs through the base replay.
CERTIFYING = ("bit_flip", "control_flow", "queue_state")


def snapshot(result: RunResult) -> dict:
    """Every field of *result*, the metrics as their Prometheus bytes."""
    doc = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "metrics"
    }
    doc["prometheus"] = result.metrics.to_prometheus()
    return doc


@pytest.fixture
def replays(monkeypatch):
    """The outcome of every certification ``MulticoreSystem.build`` makes
    in this process (True: the run replays)."""
    outcomes: list[bool] = []
    original = MulticoreSystem._certify

    def spy(self, quiet):
        replayed = original(self, quiet)
        outcomes.append(replayed)
        return replayed

    monkeypatch.setattr(MulticoreSystem, "_certify", spy)
    return outcomes


def simulate(runner: SimulationRunner, spec: RunSpec):
    """*spec* run through *runner* with no quiet run: the memo is emptied
    first, so ``MulticoreSystem.build`` gets ``quiet=None``."""
    runner._quiet_runs.clear()
    return runner.run_spec(spec)


def grid(
    app: str, fault_model: str = "bit_flip", seeds=SEEDS, error_free: bool = True
) -> list[RunSpec]:
    """The error-free point (twice: the second replays the first) when
    *error_free*, then every level x the quality MTBE ladder x *seeds*."""
    specs = [
        RunSpec(app, ProtectionLevel.ERROR_FREE, seed=seed)
        for seed in ((0, 1) if error_free else ())
    ]
    specs += [
        RunSpec(app, level, mtbe=mtbe, seed=seed, fault_model=fault_model)
        for level in LEVELS
        for mtbe in MTBE_LADDER_QUALITY
        for seed in seeds
    ]
    return specs


def assert_replays_equal_simulation(specs, runner=None, reference=None) -> None:
    runner = runner or SimulationRunner(scale=SCALE)
    reference = reference or SimulationRunner(scale=SCALE)
    for spec in specs:
        record, result = runner.run_spec(spec)
        want_record, want_result = simulate(reference, spec)
        assert record == want_record, spec
        assert snapshot(result) == snapshot(want_result), spec


class TestReplayEqualsSimulation:
    @pytest.mark.parametrize("app", sorted(APP_BUILDERS))
    def test_every_app_and_level(self, app, replays):
        assert_replays_equal_simulation(grid(app))
        assert sum(replays) >= MIN_REPLAYS[app]

    @pytest.mark.parametrize("app", ("fft", "jpeg"))
    def test_every_fault_model(self, app, replays):
        # One runner for every model: the level's quiet run comes from
        # whichever model ran a masked-only run first (burst, listed
        # first, when it has one), and serves the certifying models.
        models = sorted(fault_model_names(), key=lambda name: name != "burst")
        runner = SimulationRunner(scale=SCALE)
        reference = SimulationRunner(scale=SCALE)
        for model in models:
            before = len(replays)
            assert_replays_equal_simulation(
                grid(app, model, error_free=False), runner, reference
            )
            replayed = sum(replays[before:])
            if model in CERTIFYING:
                # Measured: 102-108 on fft and 90-105 on jpeg.
                assert replayed >= 80, model
            else:
                assert replayed == 0, model

    def test_plugin_overriding_arrival_never_replays(self, replays):
        class EchoInjector(ErrorInjector):
            fault_name = "test_echo"

            def _arrival(self, events):
                ErrorInjector._arrival(self, events)

        register_fault_model(
            FaultModel(name="test_echo", summary="test-only", injector_cls=EchoInjector)
        )
        try:
            assert not EchoInjector._replays_base_arrivals
            specs = grid("fft", "test_echo", seeds=range(3), error_free=False)
            runner = SimulationRunner(scale=SCALE)
            # Fill every level's quiet run with bit_flip first, so each
            # plugin run is offered a quiet run it must decline.
            for level in LEVELS:
                runner.run_spec(RunSpec("fft", level))
            assert_replays_equal_simulation(specs, runner)
        finally:
            FAULT_MODELS.pop("test_echo", None)
        assert replays and not any(replays)

    def test_overriding_hooks_opts_out(self):
        assert ErrorInjector._replays_base_arrivals
        assert ControlFlowInjector._replays_base_arrivals
        assert QueueStateInjector._replays_base_arrivals
        assert not BurstInjector._replays_base_arrivals
        assert not StickyInjector._replays_base_arrivals

        class Gaps(ErrorInjector):
            def _draw_gap(self):
                return super()._draw_gap()

        class Advance(ErrorInjector):
            def advance(self, instructions):
                return super().advance(instructions)

        for cls in (Gaps, Advance):
            injector = cls(ErrorModel(mtbe=1000.0, p_masked=0.99), seed=1, core_id=0)
            assert injector.masked_arrivals(10) is None

    def test_a_mutated_result_does_not_reach_the_next_replay(self, replays):
        spec = RunSpec("fft", ProtectionLevel.COMMGUARD, mtbe=8_192_000)
        runner = SimulationRunner(scale=SCALE)
        _, want = simulate(SimulationRunner(scale=SCALE), spec)
        want = snapshot(want)
        first = runner.run_spec(spec)[1]  # simulated: the level's quiet run
        second = runner.run_spec(dataclasses.replace(spec, seed=1))[1]
        assert replays == [True]
        for result in (first, second):
            for counters in result.thread_counters.values():
                counters.committed_instructions += 1
                counters.commguard.pads += 1
            for words in result.outputs.values():
                words.append(0)
            result.queue_peaks.clear()
            result.sweeps += 1
        third = runner.run_spec(spec)[1]
        assert replays == [True, True]
        assert snapshot(third) == want

    def test_a_mutated_record_does_not_reach_the_next_replay(self, replays):
        spec = RunSpec("fft", ProtectionLevel.COMMGUARD, mtbe=8_192_000)
        runner = SimulationRunner(scale=SCALE)
        want = simulate(SimulationRunner(scale=SCALE), spec)[0]
        first = runner.run_spec(spec)[0]  # simulated: the level's quiet run
        second = runner.run_spec(dataclasses.replace(spec, seed=1))[0]
        assert replays == [True]
        for record in (first, second):
            for name in record.subop_ratios:
                record.subop_ratios[name] += 1.0
            record.subop_ratios["extra"] = 0.0
        third = runner.run_spec(spec)[0]
        assert replays == [True, True]
        assert third == want


class TestNoReplayWhereNoneIsAllowed:
    SPEC = RunSpec("fft", ProtectionLevel.COMMGUARD, mtbe=8_192_000, seed=1)

    @pytest.fixture
    def runner(self):
        runner = SimulationRunner(scale=SCALE)
        runner.run_spec(dataclasses.replace(self.SPEC, seed=0))
        assert len(runner._quiet_runs) == 1
        return runner

    def test_traced_runs_simulate(self, runner, replays):
        buffers = []
        for run in (runner, SimulationRunner(scale=SCALE)):
            buffer = io.StringIO()
            run.run_spec(self.SPEC, tracer=JsonlTracer(buffer))
            buffers.append(buffer.getvalue())
        assert replays == [False]
        assert buffers[0] == buffers[1]
        assert len(runner._quiet_runs) == 1

    def test_profiled_runs_simulate(self, runner, replays):
        timelines = []
        for run in (runner, SimulationRunner(scale=SCALE)):
            profiler = SimProfiler()
            run.run_spec(self.SPEC, profiler=profiler)
            timelines.append(profiler.to_json_bytes())
        assert replays == [False]
        assert timelines[0] == timelines[1]

    def test_precise_runs_simulate(self, runner, replays):
        quiet = next(iter(runner._quiet_runs.values()))
        program = runner.app("fft").program
        results = [
            run_program(
                program,
                self.SPEC.protection,
                mtbe=self.SPEC.mtbe,
                seed=self.SPEC.seed,
                system_config=SystemConfig(exec_mode="precise"),
                quiet=given_quiet,
            )
            for given_quiet in (quiet, None)
        ]
        assert replays == [False]
        assert snapshot(results[0]) == snapshot(results[1])

    def test_a_run_with_an_unmasked_error_never_becomes_quiet(self):
        runner = SimulationRunner(scale=SCALE)
        spec = RunSpec("fft", ProtectionLevel.COMMGUARD, mtbe=10_000)
        _, result = runner.run_spec(spec)
        assert result.errors_by_kind
        assert not runner._quiet_runs
        runner.run_spec(self.SPEC, tracer=JsonlTracer(io.StringIO()))
        runner.run_spec(self.SPEC, profiler=SimProfiler())
        assert not runner._quiet_runs
        runner.run_spec(self.SPEC)
        assert len(runner._quiet_runs) == 1

    def test_build_rejects_a_run_with_unmasked_errors(self):
        runner = SimulationRunner(scale=SCALE)
        program = runner.app("fft").program
        _, noisy = runner.run_spec(
            RunSpec("fft", ProtectionLevel.COMMGUARD, mtbe=10_000)
        )
        with pytest.raises(ValueError, match="no unmasked error"):
            run_program(program, ProtectionLevel.COMMGUARD, mtbe=64_000, quiet=noisy)
        _, quiet = runner.run_spec(RunSpec("fft", ProtectionLevel.COMMGUARD))
        with pytest.raises(ValueError, match="on 4 cores"):
            run_program(
                program,
                ProtectionLevel.COMMGUARD,
                mtbe=64_000,
                system_config=SystemConfig(n_cores=4),
                quiet=quiet,
            )


def _record_replay(path, original):
    def spy(self, quiet):
        replayed = original(self, quiet)
        if replayed:
            with open(path, "a") as handle:
                handle.write("r\n")
        return replayed

    return spy


@pytest.mark.skipif(
    (
        multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0]
    )
    != "fork",
    reason="the spy reaches pool workers only through fork",
)
def test_a_two_worker_jpeg_sweep_replays_most_runs(tmp_path, monkeypatch):
    """The perfbench sweep-jpeg grid at --jobs 2: 327 of its 481 runs see
    only masked errors, and each worker simulates one of them per level."""
    log = tmp_path / "replays.log"
    monkeypatch.setattr(
        MulticoreSystem, "_certify", _record_replay(log, MulticoreSystem._certify)
    )
    report = sweep(
        "jpeg",
        ("ppu-only", "ppu-reliable-queue", "commguard", "error-free"),
        mtbes=MTBE_LADDER_QUALITY,
        seeds=20,
        options=EngineOptions(
            scale=0.25, jobs=2, cache=False, store=str(tmp_path / "store.sqlite")
        ),
    )
    assert report.stats.executed == 481
    assert len(log.read_text().splitlines()) >= 300


#: The classes a simulated build constructs: one thread per node, and per
#: edge one queue of the protection level's kind (plus one CommGuard per
#: node under CommGuard).
WIRING = (NodeThread, SoftwareQueue, ReliableQueue, GuardedQueue, CommGuard)


def test_a_certified_build_wires_no_queue_thread_or_guard(monkeypatch):
    """The perfbench sweep-jpeg grid (seed 0) in one process: every
    construction of a thread, queue or CommGuard belongs to a simulated
    run, so a replaying machine has none."""
    made: Counter = Counter()
    for cls in WIRING:

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    wired: Counter = Counter()
    replayed = []
    run = MulticoreSystem.run

    def counted_run(system):
        replayed.append(system.replays)
        if not system.replays:
            graph = system.program.graph
            protection = system.protection
            wired["NodeThread"] += len(graph.nodes)
            if protection.uses_commguard:
                wired["CommGuard"] += len(graph.nodes)
                wired["GuardedQueue"] += len(graph.edges)
            elif protection.queue_pointers_corruptible:
                wired["SoftwareQueue"] += len(graph.edges)
            else:
                wired["ReliableQueue"] += len(graph.edges)
        return run(system)

    monkeypatch.setattr(MulticoreSystem, "run", counted_run)
    report = sweep(
        "jpeg",
        ("ppu-only", "ppu-reliable-queue", "commguard", "error-free"),
        mtbes=MTBE_LADDER_QUALITY,
        seeds=20,
        options=EngineOptions(scale=0.25, jobs=1, cache=False),
    )
    assert report.stats.executed == 481
    assert len(replayed) == 481
    # 327 of the grid's runs are masked-only; one per level simulates.
    assert sum(replayed) >= 300
    assert set(wired) == {cls.__name__ for cls in WIRING}
    assert made == wired


class TestMaskedArrivals:
    """``masked_arrivals(clock)`` against a twin injector that runs the
    same windows through ``advance`` and ``consume_quiet``."""

    @staticmethod
    def injectors(mtbe, p_masked, seed):
        model = ErrorModel(mtbe=mtbe, p_masked=p_masked)
        return (
            ErrorInjector(model, seed=seed, core_id=3),
            ErrorInjector(model, seed=seed, core_id=3),
        )

    @staticmethod
    def feed(injector, windows) -> bool:
        """Run *windows* as the fast path would; True if any event fired."""
        fired = False
        for window in windows:
            if injector.quiet_windows(window, 1):
                injector.consume_quiet(window)
            else:
                fired |= bool(injector.advance(window))
        return fired

    @settings(max_examples=300, deadline=None)
    @given(
        mtbe=st.sampled_from([50.0, 400.0, 3_000.0, 64_000.0]),
        p_masked=st.sampled_from([0.0, 0.5, 0.8, 0.95, 0.999]),
        seed=st.integers(0, 2**16),
        prefix=st.lists(st.integers(1, 500), max_size=20),
        windows=st.lists(st.integers(1, 2_000), min_size=1, max_size=60),
    )
    def test_certifies_exactly_the_masked_futures(
        self, mtbe, p_masked, seed, prefix, windows
    ):
        injector, twin = self.injectors(mtbe, p_masked, seed)
        self.feed(injector, prefix)
        self.feed(twin, prefix)
        clock = injector.clock + sum(windows)
        state = injector.rng.getstate()
        before = (injector.clock, injector._countdown, injector.errors_injected)

        certified = injector.masked_arrivals(clock)

        assert injector.rng.getstate() == state
        assert (injector.clock, injector._countdown, injector.errors_injected) == before
        injected, masked = twin.errors_injected, twin.errors_masked
        fired = self.feed(twin, windows)
        if certified is not None:
            assert not fired
            assert twin.errors_injected - injected == certified
            assert twin.errors_masked - masked == certified
        if fired:
            assert certified is None

    @settings(max_examples=200, deadline=None)
    @given(
        mtbe=st.sampled_from([50.0, 3_000.0, 64_000.0]),
        seed=st.integers(0, 2**16),
        prefix=st.lists(st.integers(1, 500), max_size=10),
        arrival=st.integers(0, 3),
        offset=st.sampled_from([-1, 0, 1]),
    )
    def test_declines_within_one_instruction_of_an_arrival(
        self, mtbe, seed, prefix, arrival, offset
    ):
        # Every arrival masked, so only the margin can decline.
        injector, twin = self.injectors(mtbe, 0.999_999, seed)
        self.feed(injector, prefix)
        self.feed(twin, prefix)
        # Walk the twin to its arrival-th next arrival: its position is
        # the clock plus the countdown left just before it fires.
        for _ in range(arrival):
            twin.advance(int(twin._countdown) + 1)
        position = twin.clock + twin._countdown
        clock = round(position) + offset
        assume(abs(position - clock) <= 1 and clock >= injector.clock)
        state = injector.rng.getstate()
        assert injector.masked_arrivals(clock) is None
        assert injector.rng.getstate() == state

    def test_counts_and_no_copy_cases(self):
        quiet = ErrorInjector(ErrorModel.error_free(), seed=0, core_id=0)
        assert quiet.masked_arrivals(10**9) == 0
        injector = ErrorInjector(ErrorModel(mtbe=1_000.0, p_masked=0.5), seed=4, core_id=1)
        assert injector.masked_arrivals(int(injector._countdown) - 2) == 0
        model = ErrorModel(mtbe=1_000.0, p_masked=0.999_999)
        masked, twin = (ErrorInjector(model, seed=4, core_id=1) for _ in range(2))
        assert not twin.advance(50_000)
        assert masked.masked_arrivals(50_000) == twin.errors_injected > 10
