"""Tests for the SEC-DED ECC (Section 5 of the paper, DESIGN.md invariant 3).

The library kernel is table-driven; the bit-serial construction below is
kept here as the reference it must reproduce bit for bit, exceptions and
their messages included.
"""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ecc import (
    CODEWORD_BITS,
    EccError,
    ecc_decode,
    ecc_encode,
    flip_codeword_bit,
)

data_words = st.integers(min_value=0, max_value=(1 << 32) - 1)
bit_positions = st.integers(min_value=0, max_value=CODEWORD_BITS - 1)


# -- bit-serial reference ---------------------------------------------------

_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = tuple(
    pos for pos in range(1, CODEWORD_BITS) if pos not in _PARITY_POSITIONS
)


def _parity_of_positions(codeword, parity_bit):
    """Even parity over all positions covered by *parity_bit* (excl. itself)."""
    parity = 0
    for pos in range(1, CODEWORD_BITS):
        if pos != parity_bit and pos & parity_bit:
            parity ^= (codeword >> pos) & 1
    return parity


def reference_encode(data):
    if not 0 <= data < (1 << 32):
        raise ValueError("ecc_encode expects a 32-bit word")
    codeword = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        codeword |= ((data >> i) & 1) << pos
    for parity_bit in _PARITY_POSITIONS:
        codeword |= _parity_of_positions(codeword, parity_bit) << parity_bit
    overall = 0
    for pos in range(1, CODEWORD_BITS):
        overall ^= (codeword >> pos) & 1
    return codeword | overall


def _reference_extract(codeword):
    data = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        data |= ((codeword >> pos) & 1) << i
    return data


def reference_decode(codeword):
    if not 0 <= codeword < (1 << CODEWORD_BITS):
        raise ValueError("ecc_decode expects a 39-bit codeword")
    syndrome = 0
    for parity_bit in _PARITY_POSITIONS:
        if _parity_of_positions(codeword, parity_bit) != (codeword >> parity_bit) & 1:
            syndrome |= parity_bit
    overall = 0
    for pos in range(CODEWORD_BITS):
        overall ^= (codeword >> pos) & 1
    if syndrome == 0:
        return _reference_extract(codeword), overall == 1
    if overall == 0:
        raise EccError(f"double-bit error detected (syndrome={syndrome:#x})")
    if syndrome >= CODEWORD_BITS:
        raise EccError(f"invalid syndrome {syndrome:#x}")
    return _reference_extract(codeword ^ (1 << syndrome)), True


def outcome(decode, codeword):
    """A decode's result, or its exception's type and message."""
    try:
        return decode(codeword)
    except (ValueError, EccError) as exc:
        return type(exc), str(exc)


SAMPLED_WORDS = [0, 0xFFFFFFFF, 1, 0x80000000, 0xA5A5A5A5] + [
    random.Random(seed).getrandbits(32) for seed in range(7)
]


class TestEncode:
    def test_codeword_width(self):
        assert ecc_encode(0xFFFFFFFF) < (1 << CODEWORD_BITS)

    def test_rejects_oversized_data(self):
        with pytest.raises(ValueError):
            ecc_encode(1 << 32)
        with pytest.raises(ValueError):
            ecc_encode(-1)

    def test_distinct_data_distinct_codewords(self):
        assert ecc_encode(1) != ecc_encode(2)

    @given(data_words)
    def test_roundtrip_clean(self, data):
        decoded, corrected = ecc_decode(ecc_encode(data))
        assert decoded == data
        assert corrected is False


class TestSingleBitCorrection:
    @given(data_words, bit_positions)
    def test_any_single_flip_corrected(self, data, bit):
        corrupted = flip_codeword_bit(ecc_encode(data), bit)
        decoded, corrected = ecc_decode(corrupted)
        assert decoded == data
        assert corrected is True

    def test_all_39_positions_for_one_word(self):
        codeword = ecc_encode(0xA5A5A5A5)
        for bit in range(CODEWORD_BITS):
            decoded, corrected = ecc_decode(flip_codeword_bit(codeword, bit))
            assert decoded == 0xA5A5A5A5
            assert corrected


class TestDoubleBitDetection:
    @given(
        data_words,
        st.tuples(bit_positions, bit_positions).filter(lambda t: t[0] != t[1]),
    )
    def test_any_double_flip_detected(self, data, bits):
        corrupted = ecc_encode(data)
        for bit in bits:
            corrupted = flip_codeword_bit(corrupted, bit)
        with pytest.raises(EccError):
            ecc_decode(corrupted)


class TestMatchesBitSerialReference:
    @pytest.mark.parametrize("data", SAMPLED_WORDS, ids=hex)
    def test_all_single_and_double_flips(self, data):
        codeword = ecc_encode(data)
        assert codeword == reference_encode(data)
        flips = [(bit,) for bit in range(CODEWORD_BITS)] + list(
            itertools.combinations(range(CODEWORD_BITS), 2)
        )
        assert len(flips) == 39 + 741
        for bits in flips:
            corrupted = codeword
            for bit in bits:
                corrupted = flip_codeword_bit(corrupted, bit)
            assert outcome(ecc_decode, corrupted) == outcome(
                reference_decode, corrupted
            ), bits

    def test_random_codewords(self):
        rng = random.Random(2015)
        invalid_syndromes = 0
        for _ in range(3000):
            codeword = rng.getrandbits(CODEWORD_BITS)
            expected = outcome(reference_decode, codeword)
            assert outcome(ecc_decode, codeword) == expected, hex(codeword)
            invalid_syndromes += str(expected[1]).startswith("invalid syndrome")
        assert invalid_syndromes > 0  # syndromes >= 39 were exercised

    @pytest.mark.parametrize("codeword", [-1, 1 << CODEWORD_BITS])
    def test_out_of_range_codewords(self, codeword):
        assert outcome(ecc_decode, codeword) == outcome(reference_decode, codeword)

    @pytest.mark.parametrize("data", [-1, 1 << 32])
    def test_out_of_range_data(self, data):
        with pytest.raises(ValueError) as expected:
            reference_encode(data)
        with pytest.raises(ValueError, match=str(expected.value)):
            ecc_encode(data)

    @given(data_words)
    def test_encode_and_decode_match(self, data):
        codeword = ecc_encode(data)
        assert codeword == reference_encode(data)
        assert ecc_decode(codeword) == reference_decode(codeword)


class TestValidation:
    def test_decode_rejects_oversized(self):
        with pytest.raises(ValueError):
            ecc_decode(1 << CODEWORD_BITS)

    def test_flip_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            flip_codeword_bit(0, CODEWORD_BITS)
