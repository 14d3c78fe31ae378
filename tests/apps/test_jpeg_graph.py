"""Tests for the streaming jpeg decoder graph (Fig. 1 / Fig. 2 of the paper)."""

import random

import numpy as np
import pytest

from repro.apps.base import words_to_ints
from repro.apps.jpeg import build_jpeg_app, codec
from repro.apps.jpeg.codec import decode_image, encode_image, parse_header
from repro.apps.jpeg.dct import inverse_dct
from repro.apps.jpeg.graph import (
    JpegClamper,
    JpegColorChannel,
    JpegDequantizer,
    JpegIdct,
    JpegPixelFormatter,
    JpegRowAssembler,
    build_jpeg_graph,
)
from repro.apps.jpeg.tables import ZIGZAG
from repro.apps.registry import build_app
from repro.machine.errors import ErrorModel
from repro.machine.protection import ProtectionLevel
from repro.machine.system import run_program
from repro.quality.images import synthetic_image
from repro.streamit.frames import FrameAnalysis, edge_frame_analysis
from repro.streamit.program import StreamProgram
from repro.words import int_to_word, word_to_int


@pytest.fixture(scope="module")
def small_app():
    return build_jpeg_app(width=48, height=32, quality=85)


class TestTopology:
    def test_ten_nodes_as_in_fig1(self, small_app):
        assert len(small_app.program.graph.nodes) == 10

    def test_f6_pushes_192_per_firing(self, small_app):
        """Fig. 2: F6 produces 192 items per firing (8x8 pixels x RGB)."""
        f6 = small_app.program.graph.node_by_name("F6_format")
        assert f6.output_rates == (192,)

    def test_f7_pops_one_block_row(self, small_app):
        f7 = small_app.program.graph.node_by_name("F7_rows")
        assert f7.input_rates == (48 // 8 * 192,)

    def test_paper_width_gives_15360_item_frames(self):
        """At the paper's 640-pixel width, F7 pops 15360 items per firing
        and one frame is 80 F6 firings (Fig. 2's exact numbers)."""
        image = synthetic_image(640, 8)
        graph = build_jpeg_graph(encode_image(image, quality=75))
        f7 = graph.node_by_name("F7_rows")
        assert f7.input_rates == (15360,)
        relation = edge_frame_analysis(192, 15360)
        assert relation.producer_firings == 80
        program = StreamProgram.compile(graph)
        f6 = graph.node_by_name("F6_format")
        assert program.frames.firings_per_frame[f6] == 80
        assert program.frames.firings_per_frame[f7] == 1

    def test_frames_are_block_rows(self, small_app):
        """One frame computation = one 8-pixel-high output row (Fig. 7)."""
        assert small_app.program.n_frames == 32 // 8


class TestEquivalence:
    """DESIGN.md invariant 5 for jpeg."""

    def test_streaming_matches_reference_decoder(self, small_app):
        result = run_program(small_app.program, ProtectionLevel.ERROR_FREE)
        streamed = small_app.output_signal(result).astype(np.uint8)
        reference = decode_image(encode_image(synthetic_image(48, 32), quality=85))
        assert np.array_equal(streamed, reference)

    def test_guarded_error_free_identical(self, small_app):
        plain = run_program(small_app.program, ProtectionLevel.ERROR_FREE)
        guarded = run_program(small_app.program, ProtectionLevel.COMMGUARD, mtbe=None)
        assert plain.outputs == guarded.outputs

    def test_baseline_quality_reasonable(self, small_app):
        assert 25.0 < small_app.baseline_quality() < 45.0


class TestUnderErrors:
    def test_commguard_beats_reliable_queue_on_misalignment(self):
        app = build_jpeg_app(width=96, height=64, quality=85)
        model = ErrorModel(
            mtbe=150_000, p_masked=0.0, p_data=0.1, p_control=0.8, p_address=0.1
        )
        guarded, unguarded = [], []
        for seed in range(3):
            g = run_program(
                app.program, ProtectionLevel.COMMGUARD, error_model=model, seed=seed
            )
            u = run_program(
                app.program,
                ProtectionLevel.PPU_RELIABLE_QUEUE,
                error_model=model,
                seed=seed,
            )
            guarded.append(app.quality(g))
            unguarded.append(app.quality(u))
        assert np.mean(guarded) > np.mean(unguarded) + 3.0

    def test_output_size_preserved_under_errors(self):
        app = build_jpeg_app(width=48, height=32, quality=85)
        result = run_program(
            app.program, ProtectionLevel.COMMGUARD, mtbe=50_000, seed=1
        )
        assert len(result.outputs["F7_rows"]) == 48 * 32 * 3


class TestDecodeOnce:
    """F0 entropy-decodes its container on the first run, never at build."""

    @pytest.fixture
    def decoded_blocks(self, monkeypatch):
        calls = []
        real = codec.decode_block

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(codec, "decode_block", spy)
        return calls

    def test_build_decodes_nothing(self, decoded_blocks):
        build_app("jpeg", scale=0.25)
        assert decoded_blocks == []

    def test_runs_of_one_app_decode_the_container_once(self, decoded_blocks):
        app = build_app("jpeg", scale=0.25)
        first = run_program(app.program, ProtectionLevel.ERROR_FREE)
        blocks = len(decoded_blocks)
        assert blocks == 3 * (40 // 8) * (24 // 8)
        # Data errors flip bits of the words F0 hands out, never of its cache.
        flips = ErrorModel(
            mtbe=5_000, p_masked=0.0, p_data=1.0, p_control=0.0, p_address=0.0
        )
        run_program(app.program, ProtectionLevel.PPU_ONLY, error_model=flips, seed=1)
        second = run_program(app.program, ProtectionLevel.ERROR_FREE)
        assert len(decoded_blocks) == blocks
        assert second.outputs == first.outputs


# -- the scalar formulas the batched block kernels replaced --------------------


def _dequantize_block(zigzag_coeffs, table_flat):
    natural = [0] * 64
    for pos, idx in enumerate(ZIGZAG):
        natural[idx] = int(zigzag_coeffs[pos]) * table_flat[idx]
    return natural


def _idct_block(levels):
    pixels = inverse_dct(np.asarray(levels, dtype=np.float64)) + 128.0
    return [int(v) for v in np.round(pixels).reshape(64)]


def _color_channel_values(y, cb, cr, channel):
    out = []
    for yv, cbv, crv in zip(y, cb, cr):
        if channel == 0:  # R
            value = yv + 1.402 * (crv - 128.0)
        elif channel == 1:  # G
            value = yv - 0.344136 * (cbv - 128.0) - 0.714136 * (crv - 128.0)
        else:  # B
            value = yv + 1.772 * (cbv - 128.0)
        out.append(int(round(value)))
    return out


def _clamp_pixel(value):
    return 0 if value < 0 else 255 if value > 255 else value


def _planes(words, size):
    """Split a word batch into signed planes of *size* samples."""
    return [
        [word_to_int(w) for w in words[start : start + size]]
        for start in range(0, len(words), size)
    ]


def _words(rng, n):
    """Full-range 32-bit words, as bit flips and garbage loads produce,
    with the signed extremes mixed in."""
    edges = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFF80]
    return [
        rng.choice(edges) if rng.random() < 0.1 else rng.getrandbits(32)
        for _ in range(n)
    ]


def _assert_words(batch):
    for port in batch:
        assert type(port) is list
        assert all(type(w) is int and 0 <= w < 1 << 32 for w in port)


@pytest.fixture(scope="module")
def header():
    # Quality 10 saturates the chroma table at 255, the largest multiplier.
    image = synthetic_image(32, 32)
    return parse_header(encode_image(image, quality=10))[0]


class TestBatchedKernels:
    """Every batched node equals the scalar per-word formulas on
    full-range words."""

    FIRINGS = 20

    @pytest.mark.parametrize(
        "words",
        [
            [],
            [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFF80],
            [-1, -(2**31), -(2**31) - 1, -(2**40), 3],
            [2**32, 2**32 + 1, 2**33 - 1, 0x1_8000_0000, 7],
            [1 << 40, (1 << 40) | 0x8000_0001, (1 << 40) - 1, 5],
        ],
        ids=["empty", "in-range", "negative", "wide", "bit-40"],
    )
    def test_words_to_ints(self, words):
        # The kernels' word decoder: one range-checked pass for 32-bit
        # words, the masked path for any other int.
        rng = random.Random(f"words-{len(words)}")
        for batch in (words, _words(rng, 960) + words):
            got = words_to_ints(batch)
            assert got.dtype == np.int64
            assert got.tolist() == [word_to_int(w) for w in batch]

    def test_dequantizer(self, header):
        rng = random.Random("f1-444")
        node = JpegDequantizer("F1", header)
        tables = [[int(v) for v in row] for row in header.block_tables()]
        assert node.input_rates[0] == 64 * len(tables)
        for _ in range(self.FIRINGS):
            words = _words(rng, node.input_rates[0])
            expected = [
                int_to_word(v)
                for block, table in zip(_planes(words, 64), tables)
                for v in _dequantize_block(block, table)
            ]
            got = node.work([words])
            _assert_words(got)
            assert got == [expected]

    def test_idct(self):
        rng = random.Random("f2-444")
        node = JpegIdct("F2")
        for _ in range(self.FIRINGS):
            words = _words(rng, 3 * 64)
            expected = [
                int_to_word(v) for block in _planes(words, 64) for v in _idct_block(block)
            ]
            got = node.work([words])
            _assert_words(got)
            assert got == [expected] * 3
            # Each port gets its own list: a bit flip on one must not leak.
            assert len({id(port) for port in got}) == 3

    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_color_channel(self, channel):
        rng = random.Random(f"f3-444-{channel}")
        node = JpegColorChannel("F3", channel=channel)
        for _ in range(self.FIRINGS):
            words = _words(rng, 3 * 64)
            y, cb, cr = _planes(words, 64)
            expected = [int_to_word(v) for v in _color_channel_values(y, cb, cr, channel)]
            got = node.work([words])
            _assert_words(got)
            assert got == [expected]

    def test_clamper(self):
        rng = random.Random("f5-444")
        node = JpegClamper("F5")
        for _ in range(self.FIRINGS):
            words = _words(rng, node.input_rates[0])
            expected = [int_to_word(_clamp_pixel(word_to_int(w))) for w in words]
            got = node.work([words])
            _assert_words(got)
            assert got == [expected]

    def test_pixel_formatter_gather(self):
        rng = random.Random("f6-444")
        pixels = 64
        node = JpegPixelFormatter("F6")
        words = _words(rng, 3 * pixels)
        expected = [0] * (3 * pixels)
        for pixel in range(pixels):
            expected[3 * pixel] = words[pixel]
            expected[3 * pixel + 1] = words[pixels + pixel]
            expected[3 * pixel + 2] = words[2 * pixels + pixel]
        got = node.work([words])
        _assert_words(got)
        assert got == [expected]

    @pytest.mark.parametrize("regions_x", [1, 3])
    def test_row_assembler_gather(self, regions_x):
        rng = random.Random(f"f7-444-{regions_x}")
        side = 8
        region = 3 * side * side
        node = JpegRowAssembler("F7", regions_x)
        words = _words(rng, regions_x * region)
        expected = [0] * len(words)
        row_width = regions_x * side * 3
        for block in range(regions_x):
            base = block * region
            for pixel in range(side * side):
                py, px = divmod(pixel, side)
                dst = py * row_width + (block * side + px) * 3
                expected[dst : dst + 3] = words[base + 3 * pixel : base + 3 * pixel + 3]
        node.reset()
        assert node.work([words]) == []
        assert node.collected == expected
