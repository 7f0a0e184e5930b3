"""Unit tests for repro.utils.bitops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlignmentError
from repro.utils.bitops import (
    align_down,
    align_up,
    bit,
    bits,
    is_aligned,
    mask,
    require_aligned,
)


class TestBit:
    def test_bit_zero(self):
        assert bit(0) == 1

    def test_bit_63(self):
        assert bit(63) == 1 << 63

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit(-1)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_eight(self):
        assert mask(8) == 0xFF

    def test_sixty_four(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-3)


class TestBits:
    def test_single_bit_field(self):
        assert bits(5, 5) == 0b100000

    def test_byte_field(self):
        assert bits(15, 8) == 0xFF00

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            bits(3, 7)


class TestAlignment:
    def test_is_aligned(self):
        assert is_aligned(0x2000, 0x1000)
        assert not is_aligned(0x2008, 0x1000)

    def test_align_down(self):
        assert align_down(0x2FFF, 0x1000) == 0x2000

    def test_align_up(self):
        assert align_up(0x2001, 0x1000) == 0x3000

    def test_align_up_already_aligned(self):
        assert align_up(0x2000, 0x1000) == 0x2000

    def test_require_aligned_raises(self):
        with pytest.raises(AlignmentError):
            require_aligned(3, 8)

    @given(st.integers(0, 1 << 48), st.sampled_from([8, 64, 4096]))
    def test_align_down_le_value_lt_align_up(self, value, alignment):
        down = align_down(value, alignment)
        up = align_up(value, alignment)
        assert down <= value <= up
        assert is_aligned(down, alignment)
        assert is_aligned(up, alignment)
        assert up - down in (0, alignment)
