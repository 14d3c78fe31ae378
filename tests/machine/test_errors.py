"""Tests for the error model and per-core injectors (Section 6)."""

import pytest

from repro.machine.errors import ErrorInjector, ErrorKind, ErrorModel
from repro.observability.tracer import InMemoryTracer


class TestErrorModel:
    def test_error_free_factory(self):
        model = ErrorModel.error_free()
        assert not model.enabled

    def test_error_free_invariants(self):
        model = ErrorModel.error_free()
        assert model.mtbe is None
        # The mix fields keep their calibrated defaults even when disabled,
        # so an error-free model can be re-armed by replacing just mtbe.
        assert model.p_masked == 0.80
        assert model.p_data + model.p_control + model.p_address == 1.0

    @pytest.mark.parametrize(
        "mtbe", [0, -1, -512_000, float("nan"), float("inf")]
    )
    def test_rejects_nonpositive_mtbe(self, mtbe):
        with pytest.raises(ValueError, match="mtbe must be positive"):
            ErrorModel(mtbe=mtbe)

    @pytest.mark.parametrize("p_masked", [1.0, 1.5, -0.01])
    def test_rejects_bad_masking(self, p_masked):
        with pytest.raises(ValueError, match="p_masked"):
            ErrorModel(mtbe=1000, p_masked=p_masked)

    def test_accepts_boundary_masking(self):
        assert ErrorModel(mtbe=1000, p_masked=0.0).p_masked == 0.0
        assert ErrorModel(mtbe=1000, p_masked=0.999).p_masked == 0.999

    def test_rejects_unnormalized_mix(self):
        with pytest.raises(ValueError, match="sum to"):
            ErrorModel(mtbe=1000, p_data=0.5, p_control=0.5, p_address=0.5)

    def test_mix_sum_tolerates_float_rounding(self):
        # 0.1+0.2+0.7 != 1.0 exactly in binary; must still validate.
        model = ErrorModel(mtbe=1000, p_data=0.1, p_control=0.2, p_address=0.7)
        assert model.enabled


class TestInjector:
    def test_error_free_never_fires(self):
        injector = ErrorInjector(ErrorModel.error_free(), seed=0, core_id=0)
        assert injector.advance(10_000_000) == []
        assert injector.errors_injected == 0

    def test_mean_rate_matches_mtbe(self):
        injector = ErrorInjector(ErrorModel(mtbe=1000, p_masked=0.0), seed=1, core_id=0)
        injector.advance(1_000_000)
        assert 850 <= injector.errors_injected <= 1150

    def test_masking_fraction(self):
        model = ErrorModel(mtbe=500, p_masked=0.8)
        injector = ErrorInjector(model, seed=2, core_id=0)
        events = injector.advance(1_000_000)
        masked_fraction = injector.errors_masked / injector.errors_injected
        assert 0.75 <= masked_fraction <= 0.85
        assert len(events) == injector.errors_injected - injector.errors_masked

    def test_kind_mix(self):
        model = ErrorModel(mtbe=200, p_masked=0.0)
        injector = ErrorInjector(model, seed=3, core_id=0)
        events = injector.advance(2_000_000)
        counts = {kind: 0 for kind in ErrorKind}
        for event in events:
            counts[event.kind] += 1
        total = len(events)
        assert abs(counts[ErrorKind.DATA] / total - 0.60) < 0.05
        assert abs(counts[ErrorKind.CONTROL] / total - 0.25) < 0.05
        assert abs(counts[ErrorKind.ADDRESS] / total - 0.15) < 0.05

    def test_deterministic_per_seed(self):
        model = ErrorModel(mtbe=777)
        a = ErrorInjector(model, seed=9, core_id=4)
        b = ErrorInjector(model, seed=9, core_id=4)
        ea = [(e.kind, e.at_instruction) for e in a.advance(100_000)]
        eb = [(e.kind, e.at_instruction) for e in b.advance(100_000)]
        assert ea == eb

    def test_independent_per_core(self):
        """Each core has its own stream (Section 6): different sequences."""
        model = ErrorModel(mtbe=500)
        a = ErrorInjector(model, seed=9, core_id=0)
        b = ErrorInjector(model, seed=9, core_id=1)
        ea = [e.at_instruction for e in a.advance(200_000)]
        eb = [e.at_instruction for e in b.advance(200_000)]
        assert ea != eb

    def test_clock_accumulates(self):
        injector = ErrorInjector(ErrorModel(mtbe=100), seed=0, core_id=0)
        injector.advance(30)
        injector.advance(70)
        assert injector.clock == 100

    def test_rejects_negative_advance(self):
        injector = ErrorInjector(ErrorModel(mtbe=100), seed=0, core_id=0)
        with pytest.raises(ValueError):
            injector.advance(-1)

    def test_events_tagged_with_clock(self):
        injector = ErrorInjector(ErrorModel(mtbe=50, p_masked=0.0), seed=5, core_id=0)
        events = injector.advance(500)
        for event in events:
            assert event.at_instruction == injector.clock

    def test_expovariate_stream_deterministic(self):
        """The gap sequence is a pure function of (seed, core) — the
        foundation of per-seed reproducibility and cache validity."""
        model = ErrorModel(mtbe=1234)
        a = ErrorInjector(model, seed=6, core_id=3)
        b = ErrorInjector(model, seed=6, core_id=3)
        assert a._countdown == b._countdown  # the constructor's first draw
        assert [a._draw_gap() for _ in range(5)] == [
            b._draw_gap() for _ in range(5)
        ]
        # a different seed or core yields a different stream
        c = ErrorInjector(model, seed=7, core_id=3)
        d = ErrorInjector(model, seed=6, core_id=4)
        assert len({a._countdown, c._countdown, d._countdown}) == 3

    def test_error_free_consumes_no_rng(self):
        injector = ErrorInjector(ErrorModel.error_free(), seed=0, core_id=0)
        state_before = injector.rng.getstate()
        injector.advance(1_000_000)
        assert injector.rng.getstate() == state_before

    def test_advance_zero_is_a_noop(self):
        injector = ErrorInjector(ErrorModel(mtbe=100), seed=0, core_id=0)
        assert injector.advance(0) == []
        assert injector.clock == 0

    def test_counters_partition_injections(self):
        injector = ErrorInjector(ErrorModel(mtbe=300), seed=11, core_id=1)
        events = injector.advance(500_000)
        effective = sum(injector.errors_by_kind.values())
        assert injector.errors_masked + effective == injector.errors_injected
        assert len(events) == effective


class TestInjectorTracing:
    """Injection-count contracts against `ErrorInjected` trace events."""

    def test_every_injection_traced_masked_included(self):
        tracer = InMemoryTracer()
        injector = ErrorInjector(
            ErrorModel(mtbe=400), seed=4, core_id=6, tracer=tracer
        )
        events = injector.advance(600_000)
        traced = tracer.of_kind("error-injected")
        assert len(traced) == injector.errors_injected
        masked = [e for e in traced if e.masked]
        unmasked = [e for e in traced if not e.masked]
        assert len(masked) == injector.errors_masked
        assert len(unmasked) == len(events)
        assert all(e.effect is None for e in masked)
        assert all(e.core == 6 for e in traced)

    def test_traced_effects_match_event_kinds(self):
        tracer = InMemoryTracer()
        injector = ErrorInjector(
            ErrorModel(mtbe=200, p_masked=0.0), seed=8, core_id=0, tracer=tracer
        )
        events = injector.advance(100_000)
        traced = tracer.of_kind("error-injected")
        assert [e.effect for e in traced] == [e.kind.value for e in events]

    def test_tracing_consumes_no_rng(self):
        untraced = ErrorInjector(ErrorModel(mtbe=250), seed=3, core_id=2)
        traced = ErrorInjector(
            ErrorModel(mtbe=250), seed=3, core_id=2, tracer=InMemoryTracer()
        )
        assert untraced.advance(400_000) == traced.advance(400_000)
