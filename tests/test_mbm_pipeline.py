"""Integration tests for the assembled MBM pipeline on a live bus."""

import pytest

from repro.config import PAGE_BYTES
from repro.hw.platform import Platform
from repro.core.mbm.mbm import MemoryBusMonitor


@pytest.fixture
def platform(platform_config):
    return Platform(platform_config)


@pytest.fixture
def mbm(platform):
    monitor = MemoryBusMonitor(platform, raise_interrupts=False)
    monitor.attach()
    return monitor


def arm(mbm, base, size):
    """Set bitmap bits for a range via the device backdoor."""
    bus = mbm.platform.bus
    for word_addr, mask in mbm.bitmap.words_for_range(base, size):
        bus.poke(word_addr, bus.peek(word_addr) | mask)


TARGET = 0x8100_0000


class TestDetection:
    def test_uncached_write_to_monitored_word_detected(self, platform, mbm):
        arm(mbm, TARGET, 8)
        platform.caches.write(TARGET, 0x42, cacheable=False)
        assert mbm.events_detected == 1
        [(addr, value)] = mbm.ring.consume_all()
        assert addr == TARGET
        assert value == 0x42

    def test_neighbouring_word_not_detected(self, platform, mbm):
        arm(mbm, TARGET, 8)
        platform.caches.write(TARGET + 8, 0x42, cacheable=False)
        assert mbm.events_detected == 0

    def test_word_granularity_suppresses_hot_neighbours(self, platform, mbm):
        """The paper's core efficiency claim at the hardware level: only
        the monitored word of a busy object generates events."""
        arm(mbm, TARGET, 8)  # monitor word 0 only
        for index in range(100):
            platform.caches.write(TARGET + 16, index, cacheable=False)
        platform.caches.write(TARGET, 1, cacheable=False)
        assert mbm.events_detected == 1
        assert mbm.decision.stats.get("checked") == 101

    def test_reads_are_ignored(self, platform, mbm):
        arm(mbm, TARGET, 8)
        platform.caches.read(TARGET, cacheable=False)
        assert mbm.events_detected == 0

    def test_block_write_hits_every_monitored_word(self, platform, mbm):
        arm(mbm, TARGET + 24, 16)  # words 3 and 4
        platform.bus.write_block(TARGET, 64)
        assert mbm.events_detected == 2
        events = mbm.ring.consume_all()
        assert {addr for addr, _ in events} == {TARGET + 24, TARGET + 32}

    def test_block_write_outside_monitored_area_costs_little(self, platform, mbm):
        arm(mbm, TARGET, 8)
        fetches = mbm.translator.stats.get("dram_fetches")
        platform.bus.write_block(TARGET + 0x10_0000, 512)
        # One page -> at most 8 bitmap words consulted.
        assert mbm.translator.stats.get("dram_fetches") - fetches <= 8
        assert mbm.events_detected == 0


class TestBlockWriteSnooping:
    """BLOCK_WRITE semantics: a bulk copy is one transaction carrying the
    covered range, and the MBM must find every monitored word in it —
    at the edges of the range as well as in the middle."""

    def test_monitored_words_at_range_edges_detected(self, platform, mbm):
        # First word, a middle word and the last word of a 64-word burst.
        arm(mbm, TARGET, 8)
        arm(mbm, TARGET + 31 * 8, 8)
        arm(mbm, TARGET + 63 * 8, 8)
        platform.bus.write_block(TARGET, 64)
        assert mbm.events_detected == 3
        events = mbm.ring.consume_all()
        assert {addr for addr, _ in events} == {
            TARGET, TARGET + 31 * 8, TARGET + 63 * 8
        }

    def test_words_just_outside_covered_range_ignored(self, platform, mbm):
        arm(mbm, TARGET - 8, 8)        # one word before the burst
        arm(mbm, TARGET + 64 * 8, 8)   # one word after the burst
        platform.bus.write_block(TARGET, 64)
        assert mbm.events_detected == 0

    def test_block_values_unavailable(self, platform, mbm):
        """Block-modelled streams carry no per-word values: the ring
        records the all-ones sentinel."""
        arm(mbm, TARGET, 8)
        platform.bus.write_block(TARGET, 4)
        [(addr, value)] = mbm.ring.consume_all()
        assert addr == TARGET
        assert value == (1 << 64) - 1

    def test_snooper_sees_one_transaction_per_block(self, platform, mbm):
        observed = mbm.snooper.stats.get("observed")
        platform.bus.write_block(TARGET, 512)
        assert mbm.snooper.stats.get("observed") == observed + 1
        assert platform.bus.stats.get("block_writes") == 1
        assert platform.bus.stats.get("block_words") == 512

    def test_bulk_copy_through_cpu_path_detected(self, platform, mbm):
        """A CPU bulk write over non-cacheable pages reaches the bus as
        BLOCK_WRITE transactions whose ranges include the monitored word."""
        from repro.arch.cpu import CPUCore
        from repro.arch.pagetable import KERNEL_VA_BASE
        from repro.arch.registers import SCTLR_M
        from tests.helpers import TableBuilder

        cpu = CPUCore(platform)
        builder = TableBuilder(platform, TARGET + 0x20_0000)
        vaddr = KERNEL_VA_BASE + 0x10_0000
        builder.map_page(vaddr, TARGET, cacheable=False)
        builder.map_page(vaddr + 0x1000, TARGET + 0x1000, cacheable=False)
        cpu.regs.write("TTBR1_EL1", builder.root)
        cpu.regs.set_bits("SCTLR_EL1", SCTLR_M)

        monitored = TARGET + 100 * 8
        arm(mbm, monitored, 8)
        cpu.write_block(vaddr, 700)  # 5600 bytes: spans both mapped pages
        assert mbm.events_detected == 1
        [(addr, _)] = mbm.ring.consume_all()
        assert addr == monitored

    def test_detached_snooper_sees_nothing_but_stats_still_count(self, platform, mbm):
        """With no snoopers attached the bus skips notification entirely;
        transaction statistics must still be exact."""
        arm(mbm, TARGET, 8)
        mbm.detach()
        platform.bus.write_block(TARGET, 64)
        assert mbm.events_detected == 0
        assert platform.bus.stats.get("block_writes") == 1
        assert platform.bus.stats.get("block_words") == 64


class TestCacheabilityRequirement:
    def test_cacheable_writes_are_invisible(self, platform, mbm):
        """Paper 5.3: without the non-cacheable attribute, writes hide in
        the cache and the MBM sees nothing — the reason Hypersec retunes
        monitored pages."""
        arm(mbm, TARGET, 8)
        platform.caches.write(TARGET, 0x99, cacheable=True)
        assert mbm.events_detected == 0

    def test_eventual_writeback_flags_hazard(self, platform, mbm):
        arm(mbm, TARGET, 8)
        platform.caches.write(TARGET, 0x99, cacheable=True)
        platform.caches.clean_invalidate_range(TARGET & ~0xFFF, PAGE_BYTES)
        assert mbm.events_detected == 0  # values were not decodable
        assert mbm.stats.get("writeback_hazards") == 1


class TestBitmapCacheCoherency:
    def test_uncached_bitmap_update_reaches_mbm(self, platform, mbm):
        """Hypersec's uncached bitmap stores are snooped: a previously
        cached zero word must not mask a newly enabled bit."""
        # Prime the MBM's bitmap cache with the (zero) word.
        platform.caches.write(TARGET, 1, cacheable=False)
        assert mbm.events_detected == 0
        # Now enable the bit the way Hypersec does: an uncached store.
        word_addr, bit = mbm.bitmap.locate(TARGET)
        current = platform.bus.peek(word_addr)
        platform.caches.write(word_addr, current | (1 << bit), cacheable=False)
        platform.caches.write(TARGET, 2, cacheable=False)
        assert mbm.events_detected == 1

    def test_bitmap_cache_reduces_dram_fetches(self, platform, mbm):
        arm(mbm, TARGET, 8)
        for index in range(50):
            platform.caches.write(TARGET, index, cacheable=False)
        assert mbm.translator.stats.get("dram_fetches") == 1
        assert mbm.bitmap_cache.stats.get("hits") == 49

    def test_disabled_bitmap_cache_fetches_every_time(self, platform_config):
        platform = Platform(platform_config)
        mbm = MemoryBusMonitor(platform, bitmap_cache_enabled=False,
                               raise_interrupts=False)
        mbm.attach()
        arm(mbm, TARGET, 8)
        for index in range(50):
            platform.caches.write(TARGET, index, cacheable=False)
        assert mbm.translator.stats.get("dram_fetches") == 50


class TestMonitorIsolation:
    def test_mbm_ignores_its_own_traffic(self, platform, mbm):
        arm(mbm, TARGET, 8)
        before = mbm.snooper.stats.get("observed")
        platform.caches.write(TARGET, 1, cacheable=False)
        # The detection produced ring-buffer writes with initiator "mbm";
        # they must not have been observed (no feedback loop).
        observed = mbm.snooper.stats.get("observed") - before
        assert observed == 1

    def test_dma_write_into_secure_region_flagged(self, platform, mbm):
        alerts = []
        mbm.tamper_alert.subscribe(alerts.append)
        platform.bus.write(platform.secure_base + 0x2000, 7, initiator="dma")
        assert len(alerts) == 1
        assert mbm.snooper.stats.get("secure_tamper_writes") == 1

    def test_cpu_write_into_secure_region_not_flagged(self, platform, mbm):
        """EL2 (Hypersec) legitimately writes its own region."""
        alerts = []
        mbm.tamper_alert.subscribe(alerts.append)
        platform.bus.write(platform.secure_base + 0x2000, 7, initiator="cpu")
        assert alerts == []

    def test_double_attach_rejected(self, platform, mbm):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            mbm.attach()


class TestInterruptPath:
    def test_detection_raises_platform_irq(self, platform_config):
        from repro.hw.platform import MBM_IRQ, Platform

        platform = Platform(platform_config)
        mbm = MemoryBusMonitor(platform, raise_interrupts=True)
        mbm.attach()
        fired = []
        platform.gic.register(MBM_IRQ, fired.append)
        arm(mbm, TARGET, 8)
        platform.caches.write(TARGET, 5, cacheable=False)
        assert fired == [MBM_IRQ]
