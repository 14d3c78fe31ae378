"""Exec-mode equivalence suite: the quiet-span fast path must be
bit-identical to the per-word precise oracle — same ``RunResult``, same
cache keys, byte-identical trace bytes — across the app × protection ×
MTBE × seed grid and across every registered fault model.

This is the determinism contract that makes ``exec_mode`` a pure
performance knob: ``SystemConfig(exec_mode="fast")`` (the default) may
execute whole steady-state firings in bulk inside error-quiet spans, but
every observable of the run must match ``exec_mode="precise"``, which
executes word by word unconditionally.
"""

import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app
from repro.core.config import CommGuardConfig
from repro.experiments.cache import spec_key
from repro.experiments.parallel import RunSpec
from repro.machine.errors import ErrorInjector, ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.system import SystemConfig, run_program
from repro.observability import JsonlTracer

PRECISE = SystemConfig(exec_mode="precise")
FAST = SystemConfig()  # exec_mode="fast" is the default
#: The fast path must also agree under the legacy scheduler.
FAST_LEGACY = SystemConfig(scheduler="legacy")
VARIANTS = (FAST, FAST_LEGACY)


def result_snapshot(result):
    """Every observable field of a RunResult, in comparable form."""
    return (
        result.outputs,
        {
            name: dataclasses.asdict(counters)
            for name, counters in result.thread_counters.items()
        },
        result.errors_by_kind,
        result.errors_injected,
        result.sweeps,
        result.hung,
        result.forced_unblocks,
        result.queue_peaks,
    )


def run_snapshot(config, app_name, protection, mtbe, seed, scale=0.25, **kw):
    app = build_app(app_name, scale=scale)
    result = run_program(
        app.program, protection, mtbe=mtbe, seed=seed, system_config=config, **kw
    )
    return result_snapshot(result)


#: Guarded DSP apps in which nearly every firing starts a frame, so their
#: quiet spans run across aligned frame boundaries.  Small scale keeps
#: each run near a tenth of a second.
DSP_APPS = ("complex-fir", "channelvocoder")
DSP_SCALE = 0.05


def grid_points():
    """Every protection level, a dense-error and a quiet-span-heavy MTBE,
    two seeds, over apps covering the guarded and raw queue paths, plus
    CommGuard runs of the DSP apps."""
    points = []
    for app_name in ("jpeg", "mp3", "fft"):
        for protection in ProtectionLevel:
            mtbes = (
                (None,)
                if protection is ProtectionLevel.ERROR_FREE
                else (10_000.0, 1_024_000.0)
            )
            for mtbe in mtbes:
                for seed in (0, 1):
                    points.append((app_name, protection, mtbe, seed))
    for app_name in DSP_APPS:
        for mtbe in (10_000.0, 1_024_000.0):
            for seed in (0, 1):
                points.append((app_name, ProtectionLevel.COMMGUARD, mtbe, seed))
    return points


class TestBitIdenticalResults:
    @pytest.mark.parametrize(
        "app_name,protection,mtbe,seed",
        grid_points(),
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_grid_point(self, app_name, protection, mtbe, seed):
        scale = DSP_SCALE if app_name in DSP_APPS else 0.25
        reference = run_snapshot(PRECISE, app_name, protection, mtbe, seed, scale)
        for config in VARIANTS:
            assert (
                run_snapshot(config, app_name, protection, mtbe, seed, scale)
                == reference
            ), f"exec_mode={config.exec_mode} scheduler={config.scheduler}"

    def test_scaled_frames_match(self):
        # Frame boundaries every fourth invocation: the fast path absorbs
        # headers only where a frame domain actually rolls over.
        kw = dict(scale=DSP_SCALE, commguard_config=CommGuardConfig(frame_scale=4))
        point = ("channelvocoder", ProtectionLevel.COMMGUARD, 1_024_000.0, 0)
        reference = run_snapshot(PRECISE, *point, **kw)
        for config in VARIANTS:
            assert run_snapshot(config, *point, **kw) == reference

    def test_timeout_heavy_run_matches(self):
        # mp3 under PPU_ONLY at 64k is the stuck-sweep regime: the fast
        # path must bail out to per-word mode around every misalignment
        # and still reproduce the forced-unblock bookkeeping exactly.
        reference = run_snapshot(
            PRECISE, "mp3", ProtectionLevel.PPU_ONLY, 64_000.0, 0
        )
        assert reference[6] > 0, "expected forced unblocks in this regime"
        assert (
            run_snapshot(FAST, "mp3", ProtectionLevel.PPU_ONLY, 64_000.0, 0)
            == reference
        )


class TestFaultModels:
    """Every registered error process — including sticky, whose stuck
    registers re-corrupt values between arrivals — must agree."""

    @pytest.mark.parametrize(
        "fault_model",
        ["bit_flip", "burst", "control_flow", "queue_state",
         "sticky", "sticky:dwell=200000"],
    )
    @pytest.mark.parametrize("mtbe", [50_000.0, 1_024_000.0])
    def test_model_matches_precise(self, fault_model, mtbe):
        kw = dict(fault_model=fault_model)
        reference = run_snapshot(
            PRECISE, "mp3", ProtectionLevel.COMMGUARD, mtbe, 1, scale=0.2, **kw
        )
        assert (
            run_snapshot(
                FAST, "mp3", ProtectionLevel.COMMGUARD, mtbe, 1, scale=0.2, **kw
            )
            == reference
        )


class TestByteIdenticalTraces:
    @pytest.mark.parametrize("app_name", ["jpeg", "mp3"])
    @pytest.mark.parametrize(
        "protection", list(ProtectionLevel), ids=lambda level: level.name
    )
    def test_trace_bytes_exec_mode_invariant(self, app_name, protection):
        mtbe = None if protection is ProtectionLevel.ERROR_FREE else 100_000.0

        def trace_bytes(config):
            buffer = io.StringIO()
            app = build_app(app_name, scale=0.25)
            run_program(
                app.program,
                protection,
                mtbe=mtbe,
                seed=1,
                system_config=config,
                tracer=JsonlTracer(buffer),
            )
            return buffer.getvalue()

        assert trace_bytes(FAST) == trace_bytes(PRECISE)


class TestSharedCacheKeys:
    """fast and precise runs are interchangeable, so they share one cache
    entry — and specs predating the ``exec_mode`` field keep their keys."""

    def test_modes_share_cache_key(self):
        fast = RunSpec(app="fft", mtbe=100_000.0, seed=3, exec_mode="fast")
        precise = RunSpec(app="fft", mtbe=100_000.0, seed=3, exec_mode="precise")
        default = RunSpec(app="fft", mtbe=100_000.0, seed=3)
        keys = {spec_key(s, 0.1) for s in (fast, precise, default)}
        assert len(keys) == 1


class TestQuietSpanContract:
    """The injector-side primitives the fast path is built on."""

    def test_quiet_for_is_strict_about_the_horizon(self):
        injector = ErrorInjector(ErrorModel(mtbe=1000.0), seed=0, core_id=0)
        countdown = injector._countdown
        assert countdown is not None
        assert injector.quiet_for(int(countdown) - 1)
        assert not injector.quiet_for(int(countdown) + 1)

    def test_error_free_injector_is_always_quiet(self):
        injector = ErrorInjector(ErrorModel(mtbe=None), seed=0, core_id=0)
        assert injector.quiet_for(10**9)

    def test_consume_quiet_matches_advance_arithmetic(self):
        a = ErrorInjector(ErrorModel(mtbe=50_000.0), seed=7, core_id=0)
        b = ErrorInjector(ErrorModel(mtbe=50_000.0), seed=7, core_id=0)
        n = 1000
        assert a.quiet_for(n)
        a.consume_quiet(n)
        b.advance(n)
        assert a.clock == b.clock
        assert a._countdown == b._countdown

    def test_opt_out_models_never_certify_quiet(self):
        class CustomInjector(ErrorInjector):
            supports_quiet_span = False

        injector = CustomInjector(ErrorModel(mtbe=None), seed=0, core_id=0)
        assert not injector.quiet_for(1)

    def test_invalid_exec_mode_names_choices(self):
        app = build_app("fft", scale=0.1)
        with pytest.raises(ValueError, match="'fast', 'precise'"):
            run_program(
                app.program,
                ProtectionLevel.COMMGUARD,
                system_config=SystemConfig(exec_mode="turbo"),
            )


class TestExecModeProperty:
    """Arbitrary rate/seed/protection combinations agree — the fast path
    must drop to precise mode around every injected error, wherever the
    arrival lands inside a firing."""

    @settings(max_examples=12, deadline=None)
    @given(
        mtbe=st.sampled_from([8_000.0, 64_000.0, 256_000.0, 2_048_000.0]),
        seed=st.integers(min_value=0, max_value=50),
        protection=st.sampled_from(
            [ProtectionLevel.COMMGUARD, ProtectionLevel.PPU_RELIABLE_QUEUE]
        ),
    )
    def test_fast_equals_precise(self, mtbe, seed, protection):
        assert run_snapshot(
            FAST, "mp3", protection, mtbe, seed, scale=0.2
        ) == run_snapshot(PRECISE, "mp3", protection, mtbe, seed, scale=0.2)
