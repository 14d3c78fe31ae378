"""The ``audiobeamformer`` benchmark: multi-channel delay-and-sum beamformer.

Mirrors StreamIt's beamformer structure: a source streams interleaved
samples from ``n_channels`` simulated microphones; a round-robin splitter
fans the channels out to per-channel steering FIR filters (fractional-delay
+ weight); a joiner re-interleaves and a combiner sums the steered channels
into the beamformed output.  With 4 channels this is a 9-node graph whose
frame computations are a single item per thread — the paper's worst case
for header overheads (Figs. 12-14).  Quality is SNR against the error-free
run (Fig. 11a).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import BenchmarkApp, clipped_float_decoder
from repro.apps.dsp import FirFilter, WeightedCombiner
from repro.quality.audio import multitone_signal
from repro.streamit.filters import (
    FloatSink,
    FloatSource,
    RoundRobinJoiner,
    RoundRobinSplitter,
)
from repro.streamit.graph import StreamGraph
from repro.streamit.program import StreamProgram


def _steering_taps(channel: int, n_taps: int = 64) -> list[float]:
    """Fractional-delay FIR taps steering channel *channel* to broadside."""
    delay = channel * 0.5  # samples of steering delay per channel
    middle = (n_taps - 1) / 2.0
    taps = []
    for i in range(n_taps):
        x = i - middle - delay
        value = 1.0 if abs(x) < 1e-12 else np.sinc(x)
        window = 0.54 - 0.46 * np.cos(2 * np.pi * i / (n_taps - 1))
        taps.append(float(value * window))
    return taps


def microphone_array_signal(
    n_samples: int, n_channels: int, seed: int = 17
) -> np.ndarray:
    """Interleaved multi-channel input: a target plus per-channel noise."""
    rng = np.random.default_rng(seed)
    target = multitone_signal(n_samples + n_channels, seed=seed)
    interleaved = np.empty(n_samples * n_channels, dtype=np.float64)
    for ch in range(n_channels):
        # Integer part of the arrival delay; the FIRs handle the fraction.
        delayed = target[ch // 2 : ch // 2 + n_samples]
        noisy = delayed + 0.05 * rng.standard_normal(n_samples)
        interleaved[ch::n_channels] = noisy
    return interleaved


def build_audiobeamformer_app(
    n_frames: int = 2048,
    n_channels: int = 4,
    seed: int = 17,
) -> BenchmarkApp:
    """Package the audiobeamformer benchmark: the delay-and-sum pipeline,
    9 nodes at 4 channels."""
    data = microphone_array_signal(n_frames, n_channels, seed=seed)
    graph = StreamGraph()
    source = graph.add_node(FloatSource("source", list(data), rate=n_channels))
    splitter = graph.add_node(
        RoundRobinSplitter("split", weights=[1] * n_channels)
    )
    joiner = graph.add_node(RoundRobinJoiner("join", weights=[1] * n_channels))
    combiner = graph.add_node(
        WeightedCombiner("combine", weights=[1.0 / n_channels] * n_channels)
    )
    sink = graph.add_node(FloatSink("sink", rate=1))
    graph.connect(source, splitter)
    for ch in range(n_channels):
        steer = graph.add_node(FirFilter(f"steer{ch}", _steering_taps(ch)))
        graph.connect(splitter, steer, src_port=ch)
        graph.connect(steer, joiner, dst_port=ch)
    graph.connect(joiner, combiner)
    graph.connect(combiner, sink)
    program = StreamProgram.compile(graph)
    return BenchmarkApp(
        name="audiobeamformer",
        program=program,
        sink_name="sink",
        metric="snr",
        decode_output=clipped_float_decoder(limit=2.0),
    )
