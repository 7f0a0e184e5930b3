"""Unit tests for the cache models and the hierarchy's bus behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hw.bus import TxnKind
from repro.hw.cache import Cache
from tests.helpers import small_platform

BASE = 0x8000_0000


class TestCacheBasics:
    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache("bad", 1000, 3)

    def test_miss_then_hit(self):
        cache = Cache("c", 4096, 2)
        assert not cache.lookup(0x1000)
        cache.insert(0x1000)
        assert cache.lookup(0x1000)

    def test_lru_eviction_order(self):
        cache = Cache("c", 2 * 64, 2)  # one set, two ways
        cache.insert(0x0)
        cache.insert(0x40 * cache.num_sets)  # same set
        cache.lookup(0x0)  # refresh line 0 -> line at 0x40*sets is LRU
        evicted = cache.insert(0x80 * cache.num_sets)
        assert evicted is not None
        assert evicted[0] == 0x40 * cache.num_sets

    def test_dirty_bit_survives_reinsert(self):
        cache = Cache("c", 4096, 2)
        cache.insert(0x1000, dirty=True)
        cache.insert(0x1000, dirty=False)
        assert cache.remove_range(0x1000, 0x1040) == {0x1000: True}

    def test_mark_dirty_absent_line_noop(self):
        cache = Cache("c", 4096, 2)
        cache.mark_dirty(0x2000)
        assert cache.remove_range(0x2000, 0x2040) == {}

    def test_eviction_reports_dirtiness(self):
        cache = Cache("c", 64, 1)  # single line
        cache.insert(0x0, dirty=True)
        evicted = cache.insert(0x40 * cache.num_sets)
        # num_sets == 1, so any other line address conflicts
        assert evicted == (0x0, True)

    def test_invalidate_all(self):
        cache = Cache("c", 4096, 2)
        cache.insert(0x1000)
        cache.invalidate_all()
        assert not cache.lookup(0x1000, touch=False)


class TestHierarchy:
    @pytest.fixture
    def platform(self):
        return small_platform()

    def test_read_returns_written_value_cached(self, platform):
        platform.caches.write(BASE, 42, cacheable=True)
        assert platform.caches.read(BASE, cacheable=True) == 42

    def test_read_returns_written_value_uncached(self, platform):
        platform.caches.write(BASE, 43, cacheable=False)
        assert platform.caches.read(BASE, cacheable=False) == 43

    def test_cacheable_and_uncacheable_views_agree(self, platform):
        platform.caches.write(BASE, 7, cacheable=True)
        assert platform.caches.read(BASE, cacheable=False) == 7

    def test_hit_is_cheaper_than_miss(self, platform):
        start = platform.clock.now
        platform.caches.read(BASE, cacheable=True)
        miss_cost = platform.clock.now - start
        start = platform.clock.now
        platform.caches.read(BASE, cacheable=True)
        hit_cost = platform.clock.now - start
        assert hit_cost < miss_cost

    def test_cacheable_write_emits_no_word_transaction(self, platform):
        log = []
        platform.bus.attach_snooper(log.append)
        platform.caches.write(BASE, 1, cacheable=True)
        kinds = {txn.kind for txn in log}
        assert TxnKind.WRITE not in kinds  # only a LINE_FILL appears

    def test_uncacheable_write_reaches_the_bus(self, platform):
        log = []
        platform.bus.attach_snooper(log.append)
        platform.caches.write(BASE, 5, cacheable=False)
        assert log[-1].kind is TxnKind.WRITE
        assert log[-1].value == 5

    def test_dirty_line_writes_back_on_pressure(self, platform):
        platform.caches.write(BASE, 1, cacheable=True)
        log = []
        platform.bus.attach_snooper(log.append)
        # Touch lines that conflict with BASE in both cache levels (the
        # L2 set stride is a multiple of the L1 set stride) until the
        # dirty line is forced all the way out to DRAM.
        l2 = platform.l2
        stride = l2.num_sets * l2.line_bytes
        for i in range(1, 4 * l2.ways):
            platform.caches.read(BASE + i * stride, cacheable=True)
        assert any(t.kind is TxnKind.WRITEBACK and t.paddr == BASE for t in log)

    def test_clean_invalidate_page_writes_back_dirty_lines(self, platform):
        platform.caches.write(BASE + 0x40, 9, cacheable=True)
        written_back = platform.caches.clean_invalidate_page(BASE)
        assert written_back == 1
        # Line is gone: next read misses (fills again).
        fills_before = platform.bus.stats.get("line_fills")
        platform.caches.read(BASE + 0x40, cacheable=True)
        assert platform.bus.stats.get("line_fills") == fills_before + 1

    def test_touch_block_dirties_lines(self, platform):
        platform.caches.touch_block(BASE, 16, is_write=True)
        written_back = platform.caches.clean_invalidate_page(BASE)
        assert written_back == 2  # 16 words = 128 bytes = 2 lines

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2047), st.integers(0, (1 << 64) - 1)),
            max_size=40,
        )
    )
    def test_hierarchy_is_transparent(self, operations):
        """Whatever the cache state, reads always see the latest write."""
        platform = small_platform()
        reference = {}
        for word_index, value in operations:
            paddr = BASE + word_index * 8
            cacheable = word_index % 3 != 0
            platform.caches.write(paddr, value, cacheable)
            reference[paddr] = value
        for paddr, value in reference.items():
            assert platform.caches.read(paddr, cacheable=True) == value


class TestRangeFlush:
    """One ``clean_invalidate_range`` over a 2 MB block is the
    page-by-page flush it replaced, on a booted machine's warm caches."""

    @staticmethod
    def _busiest_section(system):
        """The 2 MB block with the most dirty resident L2 lines."""
        from collections import Counter

        from repro.config import SECTION_BYTES

        dirty = Counter(line - line % SECTION_BYTES
                        for lines in system.platform.l2._sets.values()
                        for line, was_dirty in lines.items() if was_dirty)
        return dirty.most_common(1)[0][0]

    @staticmethod
    def _flush(system, section, single, expected):
        from contextlib import nullcontext

        from repro.config import PAGE_BYTES, SECTION_BYTES
        from repro.tools.trace import BusTracer

        platform = system.platform
        caches = platform.caches
        bracket = system.mbm.expected_flush() if expected else nullcontext()
        with BusTracer(platform, kinds=[TxnKind.WRITEBACK]) as tracer, \
                bracket:
            if single:
                caches.clean_invalidate_range(section, SECTION_BYTES)
            else:
                for offset in range(0, SECTION_BYTES, PAGE_BYTES):
                    caches.clean_invalidate_page(section + offset)
        return {
            "now": platform.clock.now,
            "writebacks": tracer.records,
            "l1": {index: list(lines.items())
                   for index, lines in platform.l1._sets.items()},
            "l2": {index: list(lines.items())
                   for index, lines in platform.l2._sets.items()},
            "stats": {owner.stats.name: owner.stats.snapshot()
                      for owner in (caches, platform.l1, platform.l2,
                                    platform.dram, platform.bus,
                                    system.mbm)},
        }

    @pytest.mark.parametrize("expected", [True, False])
    def test_single_call_equals_512_page_flushes(self, expected):
        import pickle

        from repro.config import PAGE_BYTES, SECTION_BYTES
        from repro.security.fuzz.machine import (
            boot_snapshot,
            restore_from_snapshot,
        )

        warm = restore_from_snapshot(boot_snapshot("section"))
        section = self._busiest_section(warm)
        # Arm the MBM over the first half of the block, so writebacks
        # land in flushed_writebacks (inside Hypersec's bracket) or in
        # writeback_hazards (outside it).
        for word_addr, mask in warm.mbm.bitmap.words_for_range(
                section, SECTION_BYTES // 2):
            warm.platform.bus.poke(
                word_addr, warm.platform.bus.peek(word_addr) | mask)
        ops_before = warm.platform.caches.stats.get("page_maintenance_ops")
        image = pickle.dumps(warm)
        single = self._flush(pickle.loads(image), section, True, expected)
        paged = self._flush(pickle.loads(image), section, False, expected)
        assert single == paged
        assert len(single["writebacks"]) > 1000
        mbm = single["stats"]["mbm"]
        counted = "flushed_writebacks" if expected else "writeback_hazards"
        assert mbm.get(counted, 0) > 0
        ops = single["stats"]["cache_hierarchy"]["page_maintenance_ops"]
        assert ops == ops_before + SECTION_BYTES // PAGE_BYTES
        assert not any(section <= line < section + SECTION_BYTES
                       for cache in ("l1", "l2")
                       for lines in single[cache].values()
                       for line, _dirty in lines)
