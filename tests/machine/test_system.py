"""System-level tests: build, run, determinism, protections, termination."""

import pytest

from repro.core.config import CommGuardConfig
from repro.machine.errors import ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.system import MulticoreSystem, SystemConfig, run_program
from repro.streamit.builders import pipeline, split_join
from repro.streamit.filters import Identity, IntSink, IntSource
from repro.streamit.graph import StreamGraph
from repro.streamit.program import StreamProgram


def make_program(n=64, rate=2):
    graph = pipeline(
        [
            IntSource("src", list(range(n)), rate=rate),
            Identity("mid", rate=rate),
            IntSink("snk", rate=rate),
        ]
    )
    return StreamProgram.compile(graph)


def make_splitjoin_program(n=64):
    graph = StreamGraph()
    source = graph.add_node(IntSource("src", list(range(n)), rate=1))
    sink = graph.add_node(IntSink("snk", rate=2))
    split_join(graph, source, [Identity("a"), Identity("b")], sink, name="sj")
    return StreamProgram.compile(graph)


ALL_LEVELS = list(ProtectionLevel)


class TestErrorFreeTransparency:
    """DESIGN.md invariant 5: with zero errors, every protection level
    reproduces the data exactly."""

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_pipeline_output_exact(self, level):
        program = make_program()
        result = run_program(program, level, error_model=ErrorModel.error_free())
        assert result.outputs["snk"] == list(range(64))
        assert not result.hung

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_splitjoin_output_exact(self, level):
        program = make_splitjoin_program(16)
        result = run_program(program, level, error_model=ErrorModel.error_free())
        expected = [v for i in range(16) for v in (i, i)]
        assert result.outputs["snk"] == expected

    def test_output_length_matches_expectation(self):
        program = make_program()
        result = run_program(program, ProtectionLevel.ERROR_FREE)
        lengths = program.expected_output_lengths()
        assert len(result.outputs["snk"]) == lengths["snk"]


class TestDeterminism:
    """DESIGN.md invariant 6."""

    def test_same_seed_same_output(self):
        program = make_program(256)
        a = run_program(program, ProtectionLevel.COMMGUARD, mtbe=3_000, seed=5)
        b = run_program(program, ProtectionLevel.COMMGUARD, mtbe=3_000, seed=5)
        assert a.outputs == b.outputs
        assert a.errors_injected == b.errors_injected

    def test_different_seeds_differ(self):
        program = make_program(1024)
        outputs = set()
        for seed in range(4):
            result = run_program(
                program, ProtectionLevel.COMMGUARD, mtbe=1_500, seed=seed
            )
            outputs.add(tuple(result.outputs["snk"]))
        assert len(outputs) > 1


class TestProgressGuarantee:
    """DESIGN.md invariant 2: runs always terminate with full-length output."""

    @pytest.mark.parametrize("seed", range(6))
    def test_commguard_output_length_preserved_under_errors(self, seed):
        program = make_program(256)
        result = run_program(
            program, ProtectionLevel.COMMGUARD, mtbe=1_000, seed=seed
        )
        assert len(result.outputs["snk"]) == 256
        assert not result.hung

    @pytest.mark.parametrize(
        "level", [ProtectionLevel.PPU_ONLY, ProtectionLevel.PPU_RELIABLE_QUEUE]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_baselines_terminate_even_when_corrupted(self, level, seed):
        program = make_program(256)
        result = run_program(program, level, mtbe=800, seed=seed)
        assert not result.hung
        assert len(result.outputs["snk"]) == 256

    @pytest.mark.parametrize("n_cores", [10, 2])
    def test_splitjoin_under_heavy_errors_terminates(self, n_cores):
        """On 2 cores each core time-slices three of the six threads."""
        system = MulticoreSystem.build(
            make_splitjoin_program(128),
            ProtectionLevel.COMMGUARD,
            error_model=ErrorModel(mtbe=500),
            seed=2,
            system_config=SystemConfig(n_cores=n_cores),
        )
        per_core = [len(core.threads) for core in system.cores]
        assert sum(per_core) == 6
        assert min(per_core) >= 6 // n_cores
        result = system.run()
        assert not result.hung
        assert len(result.outputs["snk"]) == 256


class TestBuildValidation:
    def test_error_model_required_for_error_prone_levels(self):
        with pytest.raises(ValueError, match="error model"):
            MulticoreSystem.build(make_program(), ProtectionLevel.COMMGUARD)

    def test_error_free_ignores_model(self):
        system = MulticoreSystem.build(
            make_program(),
            ProtectionLevel.ERROR_FREE,
            error_model=ErrorModel(mtbe=10),
        )
        for core in system.cores:
            assert not core.injector.model.enabled

    def test_custom_system_config(self):
        config = SystemConfig(n_cores=3, frame_stall_cycles=5)
        system = MulticoreSystem.build(
            make_program(), ProtectionLevel.ERROR_FREE, system_config=config
        )
        assert len(system.cores) == 3

    def test_threads_share_core_when_packed(self):
        config = SystemConfig(n_cores=2)
        system = MulticoreSystem.build(
            make_program(), ProtectionLevel.ERROR_FREE, system_config=config
        )
        assert sum(len(core.threads) for core in system.cores) == 3


class TestFrameScaling:
    @pytest.mark.parametrize("frame_scale", [1, 2, 4, 8])
    def test_scaled_frames_error_free_transparent(self, frame_scale):
        program = make_program(64)
        result = run_program(
            program,
            ProtectionLevel.COMMGUARD,
            error_model=ErrorModel.error_free(),
            commguard_config=CommGuardConfig(frame_scale=frame_scale),
        )
        assert result.outputs["snk"] == list(range(64))

    def test_larger_frames_fewer_headers(self):
        program = make_program(64)
        stores = []
        for frame_scale in (1, 4):
            result = run_program(
                program,
                ProtectionLevel.COMMGUARD,
                error_model=ErrorModel.error_free(),
                commguard_config=CommGuardConfig(frame_scale=frame_scale),
            )
            stores.append(result.commguard_stats().header_stores)
        assert stores[1] < stores[0]


class TestRunResultContents:
    def test_counters_populated(self):
        program = make_program()
        result = run_program(program, ProtectionLevel.ERROR_FREE)
        assert set(result.thread_counters) == {"src", "mid", "snk"}
        total = result.aggregate_counters()
        assert total.committed_instructions > 0
        assert total.items_pushed == 128  # src + mid pushes
        assert total.items_popped == 128

    def test_execution_time_includes_stalls_for_guarded(self):
        program = make_program()
        plain = run_program(program, ProtectionLevel.ERROR_FREE)
        guarded = run_program(
            program,
            ProtectionLevel.COMMGUARD,
            error_model=ErrorModel.error_free(),
        )
        assert guarded.execution_time() > plain.execution_time()
        assert (
            guarded.committed_instructions == plain.committed_instructions
        )
