"""Unit tests for the JPEG-style codec components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.jpeg.bitio import BitReader, BitWriter
from repro.apps.jpeg.codec import (
    bit_size,
    block_symbols,
    decode_amplitude,
    decode_block,
    decode_image,
    dequantize_blocks,
    encode_amplitude,
    encode_image,
    idct_blocks,
    parse_header,
    quantize_block,
    rgb_to_ycbcr,
)
from repro.apps.jpeg.dct import forward_dct, inverse_dct
from repro.apps.jpeg.huffman import CanonicalCode
from repro.apps.jpeg.tables import (
    CHROMINANCE_BASE,
    INVERSE_ZIGZAG,
    LUMINANCE_BASE,
    ZIGZAG,
    quality_scaled_table,
)
from repro.quality.images import synthetic_image
from repro.quality.metrics import psnr_db


class TestBitIO:
    def test_simple_roundtrip(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        writer.write_bits(0xFF, 8)
        writer.write_bits(0, 2)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(3) == 0b101
        assert reader.read_bits(8) == 0xFF
        assert reader.read_bits(2) == 0

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(4, 2)

    def test_reads_past_end_return_zero(self):
        reader = BitReader(b"\xff")
        assert reader.read_bits(8) == 0xFF
        assert reader.read_bits(8) == 0
        assert reader.exhausted

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 16)), max_size=50))
    def test_random_roundtrip(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write_bits(value & ((1 << width) - 1), width)
        reader = BitReader(writer.getvalue())
        for value, width in fields:
            assert reader.read_bits(width) == value & ((1 << width) - 1)


class TestHuffman:
    def test_known_code_lengths(self):
        code = CanonicalCode.from_frequencies({0: 100, 1: 50, 2: 25, 3: 25})
        assert code.lengths[0] == 1

    def test_single_symbol(self):
        code = CanonicalCode.from_frequencies({7: 3})
        assert code.lengths == {7: 1}

    def test_canonical_prefix_free(self):
        code = CanonicalCode.from_frequencies({i: i + 1 for i in range(20)})
        values = sorted(code.codes.values(), key=lambda cl: cl[1])
        for i, (code_a, len_a) in enumerate(values):
            for code_b, len_b in values[i + 1 :]:
                assert code_b >> (len_b - len_a) != code_a  # no prefix

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 255), st.integers(1, 1000), min_size=1, max_size=64
        ),
        st.lists(st.integers(0, 63), max_size=100),
    )
    def test_roundtrip_random_alphabets(self, freqs, indices):
        code = CanonicalCode.from_frequencies(freqs)
        symbols = sorted(code.lengths)
        message = [symbols[i % len(symbols)] for i in indices]
        writer = BitWriter()
        for symbol in message:
            code.encode_symbol(writer, symbol)
        # Serialization roundtrip too.
        header = BitWriter()
        code.serialize(header)
        recovered = CanonicalCode.deserialize(BitReader(header.getvalue()))
        assert recovered.codes == code.codes
        decoder = recovered.decoder()
        reader = BitReader(writer.getvalue())
        assert [decoder.decode_symbol(reader) for _ in message] == message

    def test_invalid_stream_raises(self):
        code = CanonicalCode.from_frequencies({0: 1, 1: 1})
        decoder = code.decoder()
        # Exhausted reader yields zero bits forever -> decodes symbol 0
        # repeatedly, never an error; an error needs an impossible pattern.
        deep = CanonicalCode.from_lengths({5: 2, 6: 2, 7: 2})
        reader = BitReader(b"\xff\xff")
        with pytest.raises(ValueError):
            deep.decoder().decode_symbol(reader)


class TestTables:
    def test_zigzag_is_permutation(self):
        assert sorted(ZIGZAG) == list(range(64))

    def test_zigzag_known_prefix(self):
        # Standard JPEG zigzag starts 0, 1, 8, 16, 9, 2, 3, 10 ...
        assert ZIGZAG[:8] == [0, 1, 8, 16, 9, 2, 3, 10]

    def test_inverse_zigzag(self):
        for pos, idx in enumerate(ZIGZAG):
            assert INVERSE_ZIGZAG[idx] == pos

    def test_quality_50_keeps_base(self):
        assert np.array_equal(
            quality_scaled_table(LUMINANCE_BASE, 50), LUMINANCE_BASE
        )

    def test_quality_100_all_ones_or_small(self):
        table = quality_scaled_table(LUMINANCE_BASE, 100)
        assert table.max() <= 2

    def test_lower_quality_coarser(self):
        q25 = quality_scaled_table(CHROMINANCE_BASE, 25)
        q75 = quality_scaled_table(CHROMINANCE_BASE, 75)
        assert (q25 >= q75).all()

    def test_quality_bounds(self):
        with pytest.raises(ValueError):
            quality_scaled_table(LUMINANCE_BASE, 0)


class TestDct:
    def test_orthonormal_roundtrip(self):
        rng = np.random.default_rng(0)
        block = rng.uniform(-128, 127, (8, 8))
        assert np.allclose(inverse_dct(forward_dct(block)), block, atol=1e-9)

    def test_dc_of_constant_block(self):
        block = np.full((8, 8), 64.0)
        coeffs = forward_dct(block)
        assert coeffs[0, 0] == pytest.approx(64.0 * 8)
        assert np.allclose(coeffs.reshape(64)[1:], 0, atol=1e-9)

    def test_energy_preservation(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((8, 8))
        assert np.sum(block**2) == pytest.approx(np.sum(forward_dct(block) ** 2))


class TestAmplitudeCoding:
    @given(st.integers(-2047, 2047))
    def test_roundtrip(self, value):
        size = bit_size(value)
        writer = BitWriter()
        encode_amplitude(writer, value, size)
        reader = BitReader(writer.getvalue())
        assert decode_amplitude(reader, size) == value

    def test_bit_size_values(self):
        assert bit_size(0) == 0
        assert bit_size(1) == bit_size(-1) == 1
        assert bit_size(255) == 8
        assert bit_size(-256) == 9


class TestBlockCoding:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-200, 200), min_size=64, max_size=64),
        st.integers(-100, 100),
    )
    def test_block_roundtrip(self, coeffs, predictor):
        from repro.apps.jpeg.codec import EOB, ZRL

        triples = block_symbols(coeffs, predictor)
        dc_code = CanonicalCode.from_frequencies({triples[0][0]: 1, 0: 1})
        ac_freqs = {}
        for symbol, _, _ in triples[1:]:
            ac_freqs[symbol] = ac_freqs.get(symbol, 0) + 1
        ac_freqs.setdefault(EOB, 1)
        ac_code = CanonicalCode.from_frequencies(ac_freqs)
        writer = BitWriter()
        symbol, amp, size = triples[0]
        dc_code.encode_symbol(writer, symbol)
        encode_amplitude(writer, amp, size)
        for symbol, amp, size in triples[1:]:
            ac_code.encode_symbol(writer, symbol)
            encode_amplitude(writer, amp, size)
        reader = BitReader(writer.getvalue())
        decoded, dc = decode_block(
            reader, dc_code.decoder(), ac_code.decoder(), predictor
        )
        assert decoded == coeffs
        assert dc == coeffs[0]


class TestQuantRoundtrip:
    def test_quantize_dequantize_idct_close(self):
        rng = np.random.default_rng(2)
        block = rng.uniform(0, 255, (8, 8))
        table = quality_scaled_table(LUMINANCE_BASE, 95)
        zz = np.array([quantize_block(block, table)])
        levels = dequantize_blocks(zz, table.reshape(1, 64))
        pixels = idct_blocks(levels)
        assert np.max(np.abs(pixels.reshape(8, 8) - block)) < 24


class TestFullCodec:
    def test_encode_decode_psnr(self):
        image = synthetic_image(48, 32)
        encoded = encode_image(image, quality=85)
        decoded = decode_image(encoded)
        assert decoded.shape == image.shape
        assert psnr_db(image.astype(float).ravel(), decoded.astype(float).ravel()) > 25

    def test_compression_actually_compresses(self):
        image = synthetic_image(48, 32)
        assert len(encode_image(image, quality=75)) < image.size // 2

    def test_header_roundtrip(self):
        image = synthetic_image(32, 16)
        header, _ = parse_header(encode_image(image, quality=60))
        assert (header.width, header.height, header.quality) == (32, 16, 60)
        assert header.blocks_x == 4 and header.blocks_y == 2

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            parse_header(b"\x00\x00\x00\x00")
        # A stream whose mode byte is not 4:4:4's 0.
        data = bytearray(encode_image(synthetic_image(16, 16)))
        assert data[7] == 0
        data[7] = 1
        with pytest.raises(ValueError):
            parse_header(bytes(data))

    def test_non_multiple_of_8_rejected(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros((10, 10, 3), dtype=np.uint8))

    def test_quality_monotone(self):
        image = synthetic_image(48, 32)
        ref = image.astype(float).ravel()
        low = decode_image(encode_image(image, quality=30)).astype(float).ravel()
        high = decode_image(encode_image(image, quality=95)).astype(float).ravel()
        assert psnr_db(ref, high) > psnr_db(ref, low)

    def test_ycbcr_grey_axis(self):
        grey = np.full((1, 1, 3), 77.0)
        ycc = rgb_to_ycbcr(grey)
        assert ycc[0, 0, 0] == pytest.approx(77.0)
        assert ycc[0, 0, 1] == pytest.approx(128.0)
        assert ycc[0, 0, 2] == pytest.approx(128.0)
