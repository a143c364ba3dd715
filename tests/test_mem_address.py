"""Unit tests for address arithmetic."""

from hypothesis import given, strategies as st
import pytest

from repro.mem.address import WORD_BYTES, AddressMap


class TestConstruction:
    def test_default_line_size(self):
        amap = AddressMap()
        assert amap.line_bytes == 64
        assert amap.words_per_line == 16

    @pytest.mark.parametrize("bad", [0, -64, 48, 100])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            AddressMap(bad)

    def test_rejects_line_smaller_than_word(self):
        with pytest.raises(ValueError):
            AddressMap(2)


class TestArithmetic:
    def test_line_addr(self):
        amap = AddressMap(64)
        assert amap.line_addr(0) == 0
        assert amap.line_addr(63) == 0
        assert amap.line_addr(64) == 64
        assert amap.line_addr(130) == 128

    def test_word_index(self):
        amap = AddressMap(64)
        assert amap.word_index(0) == 0
        assert amap.word_index(4) == 1
        assert amap.word_index(60) == 15
        assert amap.word_index(64) == 0

    def test_same_line(self):
        amap = AddressMap(64)
        assert amap.line_addr(0) == amap.line_addr(63)
        assert amap.line_addr(63) != amap.line_addr(64)

    @given(st.integers(min_value=0, max_value=2**40))
    def test_line_addr_is_aligned_and_covers(self, addr):
        amap = AddressMap(64)
        line = amap.line_addr(addr)
        assert line % 64 == 0
        assert line <= addr < line + 64

    @given(st.integers(min_value=0, max_value=2**40))
    def test_word_roundtrip(self, addr):
        amap = AddressMap(64)
        aligned = (addr // WORD_BYTES) * WORD_BYTES
        line = amap.line_addr(aligned)
        index = amap.word_index(aligned)
        assert line + index * WORD_BYTES == aligned

    @given(
        st.integers(min_value=0, max_value=2**30),
        st.sampled_from([32, 64, 128, 256]),
    )
    def test_invariants_across_line_sizes(self, addr, line_bytes):
        amap = AddressMap(line_bytes)
        assert 0 <= amap.word_index(addr) < amap.words_per_line
        assert amap.line_addr(amap.line_addr(addr)) == amap.line_addr(addr)
