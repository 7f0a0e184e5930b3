"""Unit tests for the MBM building blocks (paper Figure 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.core.mbm.bitmap import WordBitmap
from repro.core.mbm.bitmap_cache import BitmapCache
from repro.core.mbm.fifo import CaptureFifo
from repro.core.mbm.ringbuf import EventRingBuffer
from tests.helpers import small_platform

BASE = 0x8000_0000
LIMIT = 0x8400_0000  # 64 MB covered
BITMAP_BASE = 0x8800_0000


@pytest.fixture
def bitmap():
    return WordBitmap(BITMAP_BASE, BASE, LIMIT)


class TestWordBitmap:
    def test_size_is_one_bit_per_word(self, bitmap):
        covered_words = (LIMIT - BASE) // 8
        assert bitmap.size_bytes == covered_words // 8

    def test_locate_first_word(self, bitmap):
        word_addr, bit = bitmap.locate(BASE)
        assert word_addr == BITMAP_BASE
        assert bit == 0

    def test_locate_word_63(self, bitmap):
        word_addr, bit = bitmap.locate(BASE + 63 * 8)
        assert word_addr == BITMAP_BASE
        assert bit == 63

    def test_locate_second_bitmap_word(self, bitmap):
        word_addr, bit = bitmap.locate(BASE + 64 * 8)
        assert word_addr == BITMAP_BASE + 8
        assert bit == 0

    def test_locate_outside_rejected(self, bitmap):
        with pytest.raises(ConfigurationError):
            bitmap.locate(LIMIT)

    def test_words_for_range_single(self, bitmap):
        pairs = list(bitmap.words_for_range(BASE + 16, 8))
        assert pairs == [(BITMAP_BASE, 1 << 2)]

    def test_words_for_range_spans_bitmap_words(self, bitmap):
        pairs = list(bitmap.words_for_range(BASE + 62 * 8, 4 * 8))
        assert len(pairs) == 2
        assert pairs[0][1] == (1 << 62) | (1 << 63)
        assert pairs[1][1] == 0b11

    def test_words_for_range_empty(self, bitmap):
        assert list(bitmap.words_for_range(BASE, 0)) == []

    @settings(max_examples=60)
    @given(st.integers(0, (LIMIT - BASE) // 8 - 600), st.integers(1, 4096))
    def test_range_masks_cover_exactly_the_range(self, word_index, nbytes):
        """The OR of the produced masks covers each word in the range
        exactly once and nothing outside it."""
        bitmap = WordBitmap(BITMAP_BASE, BASE, LIMIT)
        base = BASE + word_index * 8
        covered = set()
        for word_addr, mask in bitmap.words_for_range(base, nbytes):
            origin = (word_addr - BITMAP_BASE) // 8 * 64
            for bit in range(64):
                if mask >> bit & 1:
                    word = origin + bit
                    assert word not in covered
                    covered.add(word)
        first = (base - BASE) // 8
        last = (base + nbytes - 1 - BASE) // 8
        assert covered == set(range(first, last + 1))

    def test_pages_for_range(self, bitmap):
        pages = bitmap.pages_for_range(BASE + 0xFF8, 16)
        assert pages == [BASE, BASE + 0x1000]


class TestBitmapCache:
    def test_miss_then_hit(self):
        cache = BitmapCache(entries=4)
        assert cache.lookup(0x100) is None
        cache.fill(0x100, 0xAB)
        assert cache.lookup(0x100) == 0xAB

    def test_lru_eviction(self):
        cache = BitmapCache(entries=2)
        cache.fill(0x100, 1)
        cache.fill(0x108, 2)
        cache.lookup(0x100)          # refresh
        cache.fill(0x110, 3)         # evicts 0x108
        assert cache.lookup(0x108) is None
        assert cache.lookup(0x100) == 1

    def test_snoop_update_refreshes_cached_word(self):
        cache = BitmapCache(entries=4)
        cache.fill(0x100, 0)
        cache.snoop_update(0x100, 0xFF)
        assert cache.lookup(0x100) == 0xFF

    def test_snoop_update_does_not_allocate(self):
        cache = BitmapCache(entries=4)
        cache.snoop_update(0x200, 0xFF)
        assert cache.lookup(0x200) is None  # read-allocate policy

    def test_disabled_cache_always_misses(self):
        cache = BitmapCache(entries=4, enabled=False)
        cache.fill(0x100, 7)
        assert cache.lookup(0x100) is None
        assert cache.stats.get("bypasses") == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BitmapCache(entries=0)


class TestCaptureFifo:
    def test_fifo_order(self):
        fifo = CaptureFifo(depth=4)
        fifo.push(1, 10)
        fifo.push(2, 20)
        assert fifo.pop() == (1, 10)
        assert fifo.pop() == (2, 20)
        assert fifo.pop() is None

    def test_overrun_latches_and_drops(self):
        fifo = CaptureFifo(depth=2)
        assert fifo.push(1, None)
        assert fifo.push(2, None)
        assert not fifo.push(3, None)
        assert fifo.overrun
        assert len(fifo) == 2

    def test_max_depth_statistic(self):
        fifo = CaptureFifo(depth=8)
        for index in range(5):
            fifo.push(index, None)
        for _ in range(5):
            fifo.pop()
        assert fifo.stats.get("max_depth") == 5

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            CaptureFifo(depth=0)


class TestEventRingBuffer:
    @pytest.fixture
    def ring(self):
        platform = small_platform()
        return EventRingBuffer(platform.bus, platform.secure_base, entries=4)

    def test_produce_consume_roundtrip(self, ring):
        ring.produce(0x1000, 0xAA)
        ring.produce(0x1008, 0xBB)
        assert ring.pending() == 2
        events = ring.consume_all()
        assert events == [(0x1000, 0xAA), (0x1008, 0xBB)]
        assert ring.pending() == 0

    def test_none_value_encodes_as_all_ones(self, ring):
        ring.produce(0x1000, None)
        [(addr, value)] = ring.consume_all()
        assert addr == 0x1000
        assert value == (1 << 64) - 1

    def test_overflow_drops(self, ring):
        for index in range(6):
            ring.produce(index * 8, index)
        assert ring.pending() == 4
        assert ring.stats.get("overflow_drops") == 2

    def test_wraparound(self, ring):
        for round_number in range(3):
            for index in range(3):
                assert ring.produce(index * 8, round_number)
            events = ring.consume_all()
            assert [value for _, value in events] == [round_number] * 3

    def test_corrupted_indices_detected(self, ring):
        ring.produce(0x1000, 1)
        # Kernel-style corruption: tail driven past head.
        ring.bus.poke(ring.base + 8, 99)
        with pytest.raises(ProtocolError):
            ring.consume_all()

    def test_too_small_ring_rejected(self):
        platform = small_platform()
        with pytest.raises(ProtocolError):
            EventRingBuffer(platform.bus, platform.secure_base, entries=1)
