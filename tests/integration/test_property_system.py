"""System-level property tests (hypothesis over error processes).

The paper's operational requirements (Section 2.1.1), checked end-to-end on
a guarded pipeline for arbitrary error-model mixes, fault models and seeds:

1. progress — the run terminates, never hangs;
2. ephemeral errors — output length is always exactly the expected length
   (misalignments never accumulate into missing/extra output);
3. low overhead — realignment loss stays a small fraction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.errors import ErrorModel
from repro.machine.faults import FAULT_MODELS
from repro.machine.protection import ProtectionLevel
from repro.machine.system import run_program
from repro.streamit.builders import pipeline, split_join
from repro.streamit.filters import Identity, IntSink, IntSource
from repro.streamit.graph import StreamGraph
from repro.streamit.program import StreamProgram


def make_pipeline_program():
    graph = pipeline(
        [
            IntSource("src", list(range(192)), rate=2),
            Identity("a", rate=3),
            Identity("b", rate=2),
            IntSink("snk", rate=4),
        ]
    )
    return StreamProgram.compile(graph)


def make_splitjoin_program():
    graph = StreamGraph()
    source = graph.add_node(IntSource("src", list(range(96)), rate=1))
    sink = graph.add_node(IntSink("snk", rate=3))
    split_join(
        graph,
        source,
        [Identity("x"), Identity("y"), Identity("z")],
        sink,
        name="sj",
    )
    return StreamProgram.compile(graph)


PIPELINE = make_pipeline_program()
SPLITJOIN = make_splitjoin_program()

error_mixes = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
).filter(lambda t: sum(t) > 0)


def normalize(mix):
    total = sum(mix)
    return tuple(p / total for p in mix)


class TestGuardedPipelineProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        mtbe=st.sampled_from([800, 3_000, 20_000]),
        seed=st.integers(0, 1_000),
        mix=error_mixes,
        masked=st.floats(0.0, 0.9),
    )
    def test_progress_and_length_invariants(self, mtbe, seed, mix, masked):
        p_data, p_control, p_address = normalize(mix)
        model = ErrorModel(
            mtbe=mtbe,
            p_masked=masked,
            p_data=p_data,
            p_control=p_control,
            p_address=p_address,
        )
        result = run_program(
            PIPELINE, ProtectionLevel.COMMGUARD, error_model=model, seed=seed
        )
        assert not result.hung
        assert len(result.outputs["snk"]) == 192
        assert 0.0 <= result.data_loss_ratio() < 0.5

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 500),
        mtbe=st.sampled_from([1_500, 15_000]),
        fault_model=st.sampled_from(sorted(FAULT_MODELS)),
    )
    def test_splitjoin_progress(self, seed, mtbe, fault_model):
        """No guarded run hangs under any registered fault model."""
        result = run_program(
            SPLITJOIN,
            ProtectionLevel.COMMGUARD,
            mtbe=mtbe,
            seed=seed,
            fault_model=fault_model,
        )
        assert not result.hung
        assert len(result.outputs["snk"]) == 96 * 3

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_baselines_also_terminate(self, seed):
        """Even the corruptible-queue baseline never hangs the simulator
        (QM timeouts guarantee forward progress, Section 5.1)."""
        result = run_program(
            PIPELINE, ProtectionLevel.PPU_ONLY, mtbe=1_000, seed=seed
        )
        assert not result.hung
        assert len(result.outputs["snk"]) == 192
