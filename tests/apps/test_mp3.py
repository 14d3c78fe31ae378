"""Unit tests for the mp3-style codec components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.jpeg.bitio import BitReader, BitWriter
from repro.apps.mp3 import bitstream as bs
from repro.apps.mp3 import build_mp3_app
from repro.apps.mp3.codec import (
    FrameDecoder,
    decode_audio,
    dequantize_sample,
    encode_audio,
)
from repro.apps.mp3.filterbank import (
    N_BANDS,
    PROTOTYPE_TAPS,
    SYSTEM_DELAY,
    AnalysisFilterbank,
    SynthesisFilterbank,
    design_prototype,
    measure_system_delay,
    synthesis_matrix,
)
from repro.apps.mp3.quantize import (
    DEFAULT_BIT_ALLOCATION,
    FRAME_SAMPLES,
    SAMPLES_PER_BAND,
    dequantize_code,
    quantize_band,
    scalefactor_index,
    scalefactor_value,
)
from repro.machine.errors import ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.system import run_program
from repro.quality.audio import multitone_signal
from repro.quality.metrics import snr_db


class TestFilterbank:
    def test_prototype_shape(self):
        proto = design_prototype()
        assert proto.shape == (PROTOTYPE_TAPS,)
        assert proto.sum() == pytest.approx(1.0)

    def test_system_delay_matches_mpeg(self):
        """The MPEG-1 polyphase cascade has a 481-sample delay."""
        assert SYSTEM_DELAY == 481
        assert measure_system_delay() == SYSTEM_DELAY

    def test_reconstruction_snr(self):
        x = multitone_signal(32 * 200)
        analysis, synthesis = AnalysisFilterbank(), SynthesisFilterbank()
        out = np.concatenate(
            [
                synthesis.process(analysis.process(x[i * 32 : (i + 1) * 32]))
                for i in range(200)
            ]
        )
        ref = x[: len(out) - SYSTEM_DELAY]
        rec = out[SYSTEM_DELAY:]
        assert snr_db(ref, rec) > 25.0

    def test_band_selectivity(self):
        """A pure tone lands (almost) entirely in its own subband."""
        analysis = AnalysisFilterbank()
        band = 5
        freq = (band + 0.5) / (2 * N_BANDS)
        t = np.arange(32 * 64)
        x = np.sin(2 * np.pi * freq * t)
        energy = np.zeros(N_BANDS)
        for i in range(64):
            s = analysis.process(x[i * 32 : (i + 1) * 32])
            energy += s * s
        assert np.argmax(energy) == band
        assert energy[band] > 0.8 * energy.sum()

    def test_analysis_requires_32_samples(self):
        with pytest.raises(ValueError):
            AnalysisFilterbank().process(np.zeros(16))

    def test_matrixing_requires_32_bands(self):
        with pytest.raises(ValueError):
            synthesis_matrix(np.zeros(16))

    def test_reset_clears_state(self):
        analysis = AnalysisFilterbank()
        analysis.process(np.ones(32))
        analysis.reset()
        silent = analysis.process(np.zeros(32))
        assert np.allclose(silent, 0.0)


class TestQuantizer:
    def test_scalefactor_ladder_monotone(self):
        values = [scalefactor_value(i) for i in range(64)]
        assert values == sorted(values, reverse=True)

    def test_scalefactor_index_covers_peak(self):
        for peak in (0.001, 0.1, 0.9, 3.9):
            index = scalefactor_index(peak)
            assert scalefactor_value(index) >= peak * 0.999

    def test_scalefactor_index_is_tight(self):
        index = scalefactor_index(0.5)
        if index + 1 < 64:
            assert scalefactor_value(index + 1) < 0.5

    def test_zero_peak(self):
        assert scalefactor_index(0.0) == 63

    @given(st.floats(-1.0, 1.0), st.integers(1, 10))
    def test_quantize_dequantize_error_bounded(self, sample, bits):
        sf = 1.0
        codes = quantize_band(np.array([sample]), sf, bits)
        recon = dequantize_code(codes[0], sf, bits)
        step = 2.0 / ((1 << bits) - 1)
        assert abs(recon - sample) <= step / 2 + 1e-9

    def test_zero_bits_band_dropped(self):
        assert quantize_band(np.ones(12), 1.0, 0) == []
        assert dequantize_code(0, 1.0, 0) == 0.0

    def test_dequantize_sample_clamps_scalefactor(self):
        assert dequantize_sample(0, 999, 2) == dequantize_sample(0, 63, 2)


class TestBitstream:
    def test_header_roundtrip(self):
        writer = BitWriter()
        bs.write_header(writer, 7, list(DEFAULT_BIT_ALLOCATION))
        header = bs.read_header(BitReader(writer.getvalue()))
        assert header.n_frames == 7
        assert header.bit_allocation == tuple(DEFAULT_BIT_ALLOCATION)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            bs.read_header(BitReader(b"\x00\x00"))
        # A stream whose channel count is not mono's 1.
        data = bytearray(encode_audio(multitone_signal(1000)))
        assert data[4] == 1
        data[4] = 2
        with pytest.raises(ValueError):
            bs.read_header(BitReader(bytes(data)))

    def test_frame_roundtrip(self):
        allocation = tuple(DEFAULT_BIT_ALLOCATION)
        rng = np.random.default_rng(3)
        scalefactors = [int(v) for v in rng.integers(0, 64, N_BANDS)]
        codes = [
            [int(v) for v in rng.integers(0, (1 << bits) if bits else 1, SAMPLES_PER_BAND)]
            for bits in allocation
        ]
        writer = BitWriter()
        bs.write_frame(writer, scalefactors, codes, allocation)
        got_sf, got_codes = bs.read_frame(BitReader(writer.getvalue()), allocation)
        assert got_sf == scalefactors
        assert got_codes == codes


class TestFullCodec:
    def test_codec_snr_in_paper_range(self):
        raw = multitone_signal(6000)
        decoded = decode_audio(encode_audio(raw), length=6000)
        snr = snr_db(raw, decoded)
        assert 7.0 <= snr <= 16.0  # paper's mp3 baseline is 9.4 dB

    def test_padding_covers_delay(self):
        raw = multitone_signal(1000)
        decoded = decode_audio(encode_audio(raw), length=1000)
        assert decoded.shape == (1000,)
        # The tail is real signal, not padding silence.
        assert np.max(np.abs(decoded[-100:])) > 0.01
        # The codec is mono: two-channel input is refused.
        with pytest.raises(ValueError):
            encode_audio(np.stack([raw, raw], axis=-1))

    def test_frame_count_in_header(self):
        from repro.apps.mp3.codec import FrameDecoder

        raw = multitone_signal(2000)
        decoder = FrameDecoder(encode_audio(raw))
        expected = -(-(2000 + SYSTEM_DELAY) // FRAME_SAMPLES)
        assert decoder.header.n_frames == expected

    def test_custom_allocation_changes_rate(self):
        raw = multitone_signal(3000)
        rich = encode_audio(raw, bit_allocation=[8] * 16 + [4] * 16)
        poor = encode_audio(raw, bit_allocation=list(DEFAULT_BIT_ALLOCATION))
        assert len(rich) > len(poor)
        assert snr_db(raw, decode_audio(rich, length=3000)) > snr_db(
            raw, decode_audio(poor, length=3000)
        )


class TestDecodeOnce:
    """G0 unpacks its container on the first run, never at build."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        counts = {"decoders": 0, "frames": 0}
        init, next_frame_raw = FrameDecoder.__init__, FrameDecoder.next_frame_raw

        def counting_init(self, data):
            counts["decoders"] += 1
            init(self, data)

        def counting_next_frame_raw(self):
            counts["frames"] += 1
            return next_frame_raw(self)

        monkeypatch.setattr(FrameDecoder, "__init__", counting_init)
        monkeypatch.setattr(FrameDecoder, "next_frame_raw", counting_next_frame_raw)
        return counts

    def test_runs_of_one_app_decode_the_container_once(self, decoded):
        app = build_mp3_app(n_samples=2_000)
        assert decoded == {"decoders": 0, "frames": 0}
        (parser,) = (n for n in app.program.graph.nodes if n.name == "G0_parser")
        first = run_program(app.program, ProtectionLevel.ERROR_FREE)
        frames = parser.header.n_frames
        assert decoded == {"decoders": 1, "frames": frames}
        # Data errors flip bits of the words G0 hands out, never of its cache.
        flips = ErrorModel(
            mtbe=5_000, p_masked=0.0, p_data=1.0, p_control=0.0, p_address=0.0
        )
        run_program(app.program, ProtectionLevel.PPU_ONLY, error_model=flips, seed=1)
        second = run_program(app.program, ProtectionLevel.ERROR_FREE)
        assert decoded == {"decoders": 1, "frames": frames}
        assert second.outputs == first.outputs
