"""One error-free run per app: the grid's own error-free point is the
reference every other run of its app is scored against.

The four self-referenced apps (``APP_GRADING``) score SNR against their
own error-free output, and jpeg/mp3 grade their lossy baseline with it.
The engine runs error-free points first; a pool worker's error-free reply
carries its output back, and the dispatcher ships it with every later
task of the app and hands it to the executor grading uses.  While an
app's error-free point is in flight its other specs are held; if that
point fails or crashes, they are released and compute the reference
themselves.  A grid with no error-free point holds nothing.

Each test runs under a time limit, so a held spec that is never released
fails instead of hanging the suite.
"""

import math
import signal
from collections import Counter

import numpy as np
import pytest

import repro.apps.base as base
import repro.experiments.parallel as parallel
from repro.apps.registry import APP_GRADING, APP_ORDER, build_app
from repro.experiments.options import EngineOptions
from repro.experiments.paper import run_paper
from repro.experiments.parallel import ParallelRunner, RunSpec, SweepRunError
from repro.experiments.runner import SimulationRunner
from repro.machine.protection import ProtectionLevel
from tests.experiments import _fault_hooks as hooks
from tests.experiments import _reference_spy as spy

SCALE = 0.05
TIME_LIMIT = 180

pytestmark = pytest.mark.timeout(TIME_LIMIT)

DSP_APPS = tuple(name for name in APP_ORDER if APP_GRADING[name].self_referenced)


@pytest.fixture(autouse=True)
def _time_limit(request):
    """pytest-timeout enforces the mark where it is installed; elsewhere
    SIGALRM does."""
    if request.config.pluginmanager.hasplugin("timeout"):
        yield
        return

    def expire(_signum, _frame):
        pytest.fail(f"test exceeded its {TIME_LIMIT}s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def spy_log(tmp_path, monkeypatch):
    """Count error-free simulations here and in every pool worker."""
    log = tmp_path / "error-free.log"
    monkeypatch.setenv(spy.ENV, str(log))
    spy.install(monkeypatch.setattr)
    monkeypatch.setattr(parallel, "_init_worker", spy.init_worker)
    return log


def error_free(app: str, **fields) -> RunSpec:
    return RunSpec(app=app, protection=ProtectionLevel.ERROR_FREE, **fields)


def fft_grid(with_error_free: bool = True) -> list[RunSpec]:
    specs = [RunSpec(app="fft", mtbe=100_000, seed=seed) for seed in range(3)]
    if with_error_free:
        specs.insert(1, error_free("fft"))
    return specs


@pytest.fixture(scope="module")
def clean_records():
    return ParallelRunner(scale=SCALE, jobs=1).run_specs(fft_grid())


class TestOneReferencePerApp:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_smoke_campaign_simulates_each_reference_once(
        self, jobs, tmp_path, spy_log
    ):
        run = run_paper(
            "smoke",
            options=EngineOptions(jobs=jobs, store=str(tmp_path / "s.sqlite")),
        )
        assert run.stats.executed == run.stats.total
        assert spy.counts(spy_log) == Counter(dict.fromkeys(APP_ORDER, 1))

    def test_grid_without_error_free_point_computes_reference_per_worker(
        self, spy_log, clean_records
    ):
        # Nothing to wait for: the specs go out at once, and each of the
        # two workers computes the reference it scores against.
        records = ParallelRunner(scale=SCALE, jobs=2).run_specs(
            fft_grid(with_error_free=False)
        )
        assert records == [clean_records[i] for i in (0, 2, 3)]
        assert 1 <= spy.counts(spy_log)["fft"] <= 2

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_records_are_placed_by_index(self, jobs, spy_log):
        # Three apps, each with its error-free point last in the grid; at
        # jobs=4 the pool has more workers than the host has cores.
        specs = [
            spec
            for app in ("fft", "jpeg", "complex-fir")
            for spec in [
                *(RunSpec(app=app, mtbe=100_000, seed=s) for s in range(3)),
                error_free(app),
            ]
        ]
        serial = ParallelRunner(scale=SCALE, jobs=1).run_specs(specs)
        before = spy.counts(spy_log)
        assert ParallelRunner(scale=SCALE, jobs=jobs).run_specs(specs) == serial
        assert spy.counts(spy_log) - before == Counter(
            {"fft": 1, "jpeg": 1, "complex-fir": 1}
        )

    def test_self_referenced_error_free_quality_is_infinite(self):
        records = ParallelRunner(scale=SCALE, jobs=2).run_specs(
            [error_free(name) for name in DSP_APPS]
        )
        qualities = [record.quality_db for record in records]
        assert qualities == [math.inf] * len(DSP_APPS)


class TestRelay:
    """The dispatcher's hold-and-release rule, task by task."""

    @staticmethod
    def item(index, spec):
        return (index, spec, None, 0)

    def test_holds_only_behind_an_error_free_point_in_flight(self):
        relay = parallel._ReferenceRelay(SimulationRunner(scale=SCALE))
        fft = [self.item(i, spec) for i, spec in enumerate(fft_grid(False))]
        assert all(relay.admit(item) for item in fft)
        producer = self.item(3, error_free("fft"))
        assert relay.admit(producer)
        later = self.item(4, RunSpec(app="fft", mtbe=100_000, seed=7))
        jpeg = self.item(5, RunSpec(app="jpeg", mtbe=100_000))
        assert not relay.admit(later)
        assert relay.admit(jpeg)
        assert relay.settle(fft[0]) == []
        output = np.arange(4.0)
        assert relay.settle(producer, output) == [later]
        assert relay.reference(later[1]) is output
        assert relay.reference(jpeg[1]) is None
        assert relay.admit(self.item(6, RunSpec(app="fft", seed=8)))

    def test_failed_producer_releases_the_held_specs(self):
        relay = parallel._ReferenceRelay(SimulationRunner(scale=SCALE))
        first, second = (self.item(i, error_free("fft")) for i in (0, 1))
        held = self.item(2, RunSpec(app="fft", mtbe=100_000))
        assert relay.admit(first) and relay.admit(second)
        assert not relay.admit(held)
        assert relay.settle(first) == []
        assert relay.settle(second) == [held]
        assert relay.reference(held[1]) is None
        assert relay.admit(self.item(3, RunSpec(app="fft", seed=9)))


@pytest.mark.parametrize("frame_scale", [1, 4])
@pytest.mark.parametrize("app", APP_ORDER)
def test_adopted_output_is_the_error_free_output(app, frame_scale, monkeypatch):
    fresh = build_app(app, scale=SCALE).error_free_output()
    runner = SimulationRunner(scale=SCALE)
    runner.run_spec(error_free(app, frame_scale=frame_scale))

    def forbidden(*args, **kwargs):
        raise AssertionError("the adopted output must not be simulated again")

    monkeypatch.setattr(base, "run_program", forbidden)
    assert np.array_equal(runner.app(app).error_free_output(), fresh)


class TestFailingProducer:
    """The error-free point fails on every attempt, in a pool of two."""

    HOOKS = [hooks.error_free_always_fails, hooks.error_free_always_crashes]

    @pytest.mark.parametrize("hook", HOOKS)
    def test_keep_going_completes_every_other_point(self, hook, clean_records):
        runner = ParallelRunner(
            scale=SCALE, jobs=2, strict=False, fault_hook=hook
        )
        records = runner.run_specs(fft_grid())
        assert records[1] is None
        assert [records[i] for i in (0, 2, 3)] == [
            clean_records[i] for i in (0, 2, 3)
        ]
        (failure,) = runner.last_stats.failures
        assert failure.index == 1
        assert failure.spec.protection is ProtectionLevel.ERROR_FREE

    @pytest.mark.parametrize("hook", HOOKS)
    def test_strict_raises_naming_the_producer(self, hook):
        runner = ParallelRunner(scale=SCALE, jobs=2, fault_hook=hook)
        with pytest.raises(SweepRunError) as raised:
            runner.run_specs(fft_grid())
        assert raised.value.failure.spec == error_free("fft")
