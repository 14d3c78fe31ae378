"""Tests for queue data-unit encoding (items vs ECC-protected headers)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ecc import EccError
from repro.core.header import (
    END_OF_COMPUTATION,
    HEADER_FLAG,
    header_frame_id,
    header_unit,
    is_end_of_computation,
    is_header_unit,
    item_unit,
    unit_word,
)

words = st.integers(min_value=0, max_value=(1 << 32) - 1)
frame_ids = st.integers(min_value=0, max_value=END_OF_COMPUTATION)


class TestItemUnits:
    @given(words)
    def test_item_roundtrip(self, word):
        unit = item_unit(word)
        assert not is_header_unit(unit)
        assert unit_word(unit) == word

    def test_item_truncates_to_word(self):
        assert unit_word(item_unit((1 << 35) | 7)) == 7

    def test_item_is_not_eoc(self):
        assert not is_end_of_computation(item_unit(END_OF_COMPUTATION))


class TestHeaderUnits:
    @given(frame_ids)
    def test_header_roundtrip(self, frame_id):
        unit = header_unit(frame_id)
        assert is_header_unit(unit)
        assert header_frame_id(unit) == frame_id

    def test_header_flag_position(self):
        assert header_unit(0) & HEADER_FLAG

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            header_unit(-1)
        with pytest.raises(ValueError):
            header_unit(END_OF_COMPUTATION + 1)

    def test_frame_id_on_item_raises(self):
        with pytest.raises(ValueError):
            header_frame_id(item_unit(3))

    def test_eoc_detection(self):
        assert is_end_of_computation(header_unit(END_OF_COMPUTATION))
        assert not is_end_of_computation(header_unit(5))
        # A double-bit error is detected, not corrected: not an EOC header.
        assert not is_end_of_computation(header_unit(END_OF_COMPUTATION) ^ 0b11)

    @given(frame_ids, st.integers(min_value=0, max_value=38))
    def test_single_bit_corruption_in_payload_still_decodes(self, frame_id, bit):
        """Headers survive any single payload bit flip (ECC)."""
        unit = header_unit(frame_id) ^ (1 << bit)
        assert header_frame_id(unit) == frame_id

    def test_double_corruption_detected(self):
        unit = header_unit(77) ^ 0b11
        with pytest.raises(EccError):
            header_frame_id(unit)
