"""The ``channelvocoder`` benchmark: analysis/synthesis channel vocoder.

Mirrors StreamIt's channelvocoder: the input "speech" signal is duplicated
into ``n_bands`` analysis branches; each branch band-passes its slice of the
spectrum and tracks the band's amplitude envelope; a joiner gathers the
per-band envelopes and a synthesizer re-modulates internally generated
carriers (one oscillator per band, persistent phase state) by the envelopes
and sums them.  With 4 bands this is a 9-node graph.  Quality is SNR against
the error-free run (Fig. 11b).
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.base import BenchmarkApp, clipped_float_decoder
from repro.apps.dsp import bandpass_taps
from repro.quality.audio import speech_like_signal
from repro.streamit.filters import (
    Batch,
    Filter,
    FloatSink,
    FloatSource,
    DuplicateSplitter,
    RoundRobinJoiner,
)
from repro.streamit.graph import StreamGraph
from repro.streamit.program import StreamProgram
from repro.words import (
    float_array_to_words,
    float_to_word,
    word_to_float,
    words_to_float_array,
)


class VocoderBand(Filter):
    """One analysis branch: band-pass FIR + envelope follower.

    Persistent state: the FIR delay line and the envelope accumulator, all
    exposed to the error injector.
    """

    def __init__(self, name: str, low: float, high: float, n_taps: int = 64,
                 smoothing: float = 0.05) -> None:
        super().__init__(name, input_rates=(1,), output_rates=(1,))
        self.taps = bandpass_taps(n_taps, low, high)
        self._taps_arr = np.asarray(self.taps[::-1], dtype=np.float64)
        self.smoothing = smoothing
        self._history = [0.0] * (len(self.taps) - 1)
        self._envelope = 0.0

    def reset(self) -> None:
        self._history = [0.0] * (len(self.taps) - 1)
        self._envelope = 0.0

    def instruction_cost(self) -> int:
        # FIR MACs plus the rectify/smooth envelope update.
        return 40 + 16 * len(self.taps) + 30

    def work(self, inputs: Batch) -> Batch:
        sample = word_to_float(inputs[0][0])
        extended = self._history + [sample]
        acc = float(np.dot(self._taps_arr, np.asarray(extended, dtype=np.float64)))
        self._history = extended[1:]
        self._envelope += self.smoothing * (abs(acc) - self._envelope)
        return [[float_to_word(self._envelope)]]

    def work_many(self, inputs: Batch, firings: int) -> Batch:
        n_state = len(self._history)
        extended = np.concatenate(
            (np.asarray(self._history, dtype=np.float64),
             words_to_float_array(inputs[0]))
        )
        taps = self._taps_arr
        dot = np.dot
        width = len(taps)
        # Each window a fresh array, as np.asarray gives ``work``: its
        # alignment can steer the BLAS kernel (see repro.apps.dsp).
        accs = [dot(taps, extended[k : k + width].copy()) for k in range(firings)]
        # The envelope recurrence runs over Python floats, as in ``work``.
        envelope = self._envelope
        smoothing = self.smoothing
        envelopes = []
        for acc in accs:
            envelope += smoothing * (abs(float(acc)) - envelope)
            envelopes.append(envelope)
        self._envelope = envelope
        self._history = extended[len(extended) - n_state :].tolist()
        return [float_array_to_words(np.array(envelopes))]

    def state_words(self) -> list[int]:
        return [float_to_word(v) for v in self._history] + [
            float_to_word(self._envelope)
        ]

    def write_state_word(self, index: int, word: int) -> None:
        if index < len(self._history):
            self._history[index] = word_to_float(word)
        else:
            self._envelope = word_to_float(word)


class VocoderSynth(Filter):
    """Synthesis: per-band carrier oscillators modulated by the envelopes."""

    def __init__(self, name: str, carrier_freqs: list[float]) -> None:
        super().__init__(
            name, input_rates=(len(carrier_freqs),), output_rates=(1,)
        )
        self.carrier_freqs = carrier_freqs
        self._phases = [0.0] * len(carrier_freqs)

    def reset(self) -> None:
        self._phases = [0.0] * len(self.carrier_freqs)

    def instruction_cost(self) -> int:
        # Per band: phase update, range reduction and a sin() evaluation.
        return 30 + 45 * len(self.carrier_freqs)

    def work(self, inputs: Batch) -> Batch:
        acc = 0.0
        for band, word in enumerate(inputs[0]):
            envelope = word_to_float(word)
            self._phases[band] = math.fmod(
                self._phases[band] + 2 * math.pi * self.carrier_freqs[band], 2 * math.pi
            )
            acc += envelope * math.sin(self._phases[band])
        return [[float_to_word(acc)]]

    def state_words(self) -> list[int]:
        return [float_to_word(p) for p in self._phases]

    def write_state_word(self, index: int, word: int) -> None:
        self._phases[index] = word_to_float(word)


def build_channelvocoder_app(
    n_frames: int = 2048, n_bands: int = 4, seed: int = 13
) -> BenchmarkApp:
    """Package the channelvocoder benchmark (9 nodes for 4 bands)."""
    data = speech_like_signal(n_frames, seed=seed)
    graph = StreamGraph()
    source = graph.add_node(FloatSource("source", list(data), rate=1))
    splitter = graph.add_node(DuplicateSplitter("split", n_branches=n_bands))
    joiner = graph.add_node(RoundRobinJoiner("join", weights=[1] * n_bands))
    # Band edges spread over normalized frequency; carriers at band centers
    # (normalized to the sample rate).
    edges = [0.02 + 0.10 * b for b in range(n_bands + 1)]
    synth = graph.add_node(
        VocoderSynth(
            "synth",
            carrier_freqs=[(edges[b] + edges[b + 1]) / 2 for b in range(n_bands)],
        )
    )
    sink = graph.add_node(FloatSink("sink", rate=1))
    graph.connect(source, splitter)
    for band in range(n_bands):
        node = graph.add_node(
            VocoderBand(f"band{band}", low=edges[band], high=edges[band + 1])
        )
        graph.connect(splitter, node, src_port=band)
        graph.connect(node, joiner, dst_port=band)
    graph.connect(joiner, synth)
    graph.connect(synth, sink)
    program = StreamProgram.compile(graph)
    return BenchmarkApp(
        name="channelvocoder",
        program=program,
        sink_name="sink",
        metric="snr",
        decode_output=clipped_float_decoder(limit=4.0),
    )
