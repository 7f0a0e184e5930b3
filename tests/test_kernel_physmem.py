"""Unit tests for the page allocator and the kernel linear map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_BYTES, SECTION_BYTES
from repro.errors import AllocationError, ConfigurationError
from repro.kernel.physmem import LinearMap, PageAllocator
from repro.arch.cpu import CPUCore
from repro.arch.pagetable import KERNEL_VA_BASE
from repro.arch.registers import SCTLR_M
from tests.helpers import small_platform

BASE = 0x8000_0000


class TestPageAllocator:
    def test_alloc_returns_aligned_pages(self):
        alloc = PageAllocator(BASE, BASE + 16 * PAGE_BYTES)
        page = alloc.alloc()
        assert page % PAGE_BYTES == 0
        assert BASE <= page < BASE + 16 * PAGE_BYTES

    def test_alloc_until_exhaustion(self):
        alloc = PageAllocator(BASE, BASE + 4 * PAGE_BYTES)
        for _ in range(4):
            alloc.alloc()
        with pytest.raises(AllocationError):
            alloc.alloc()

    def test_free_recycles(self):
        alloc = PageAllocator(BASE, BASE + PAGE_BYTES)
        page = alloc.alloc()
        alloc.free(page)
        assert alloc.alloc() == page

    def test_double_free_rejected(self):
        alloc = PageAllocator(BASE, BASE + 4 * PAGE_BYTES)
        page = alloc.alloc()
        alloc.free(page)
        with pytest.raises(AllocationError):
            alloc.free(page)

    def test_free_unallocated_rejected(self):
        alloc = PageAllocator(BASE, BASE + 4 * PAGE_BYTES)
        with pytest.raises(AllocationError):
            alloc.free(BASE)

    def test_purpose_tracking(self):
        alloc = PageAllocator(BASE, BASE + 4 * PAGE_BYTES)
        page = alloc.alloc("pgtable")
        assert alloc.purpose_of(page) == "pgtable"
        alloc.free(page)
        assert alloc.purpose_of(page) is None

    def test_counters(self):
        alloc = PageAllocator(BASE, BASE + 8 * PAGE_BYTES)
        pages = [alloc.alloc() for _ in range(3)]
        assert alloc.allocated_pages == 3
        assert alloc.free_pages == 5
        for page in pages:
            alloc.free(page)
        assert alloc.allocated_pages == 0

    def test_misaligned_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            PageAllocator(BASE + 1, BASE + PAGE_BYTES)
        with pytest.raises(ConfigurationError):
            PageAllocator(BASE, BASE)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), max_size=60))
    def test_no_page_handed_out_twice(self, operations):
        """Live pages are always disjoint, whatever the alloc/free mix."""
        alloc = PageAllocator(BASE, BASE + 16 * PAGE_BYTES)
        live = []
        for is_alloc in operations:
            if is_alloc or not live:
                if alloc.free_pages == 0:
                    continue
                page = alloc.alloc()
                assert page not in live
                live.append(page)
            else:
                alloc.free(live.pop())
        assert len(set(live)) == len(live)


class TestLinearMap:
    def _mapped_cpu(self, mode):
        platform = small_platform()
        linear = LinearMap(platform, mode)
        pool_base = platform.config.dram_base + 2 * 1024 * 1024
        root = linear.build(pool_base, platform.config.dram_base + 24 * 1024 * 1024)
        cpu = CPUCore(platform)
        cpu.regs.write("TTBR1_EL1", root)
        cpu.regs.set_bits("SCTLR_EL1", SCTLR_M)
        return platform, linear, cpu

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearMap(small_platform(), "huge")

    @pytest.mark.parametrize("mode", ["section", "page"])
    def test_translation_through_map(self, mode):
        platform, linear, cpu = self._mapped_cpu(mode)
        paddr = platform.config.dram_base + 30 * 1024 * 1024 + 0x1230
        result = cpu.mmu.translate(linear.kva(paddr) & ~7)
        assert result.paddr == paddr & ~7

    @pytest.mark.parametrize("mode", ["section", "page"])
    def test_kva_pa_roundtrip(self, mode):
        platform, linear, _ = self._mapped_cpu(mode)
        paddr = platform.config.dram_base + 0x123000
        assert linear.pa(linear.kva(paddr)) == paddr
        assert linear.kva(platform.config.dram_base) == KERNEL_VA_BASE

    def test_section_mode_uses_block_leaves(self):
        _, linear, cpu = self._mapped_cpu("section")
        result = cpu.mmu.translate(KERNEL_VA_BASE + 32 * 1024 * 1024)
        assert result.level == 2

    def test_page_mode_uses_page_leaves(self):
        _, linear, cpu = self._mapped_cpu("page")
        result = cpu.mmu.translate(KERNEL_VA_BASE + 32 * 1024 * 1024)
        assert result.level == 3

    def test_secure_region_not_mapped(self):
        platform, linear, cpu = self._mapped_cpu("page")
        from repro.errors import TranslationFault
        with pytest.raises(TranslationFault):
            cpu.mmu.translate(linear.kva(platform.secure_base))

    def test_section_mode_needs_fewer_tables(self):
        _, section_map, _ = self._mapped_cpu("section")
        _, page_map, _ = self._mapped_cpu("page")
        assert len(section_map.table_pages) < len(page_map.table_pages)

    @pytest.mark.parametrize("mode,level", [("section", 2), ("page", 3)])
    def test_leaf_desc_addr(self, mode, level):
        platform, linear, cpu = self._mapped_cpu(mode)
        paddr = platform.config.dram_base + 40 * 1024 * 1024
        desc_addr, found_level = linear.leaf_desc_addr(paddr)
        assert found_level == level
        raw = platform.bus.peek(desc_addr)
        assert raw & 1  # valid
        span = SECTION_BYTES if level == 2 else PAGE_BYTES
        assert (raw & ~0xFFF & ((1 << 48) - 1)) == paddr - paddr % span

    @pytest.mark.parametrize("secure_mb", [8, 7])
    def test_page_mode_leaf_for_every_page(self, secure_mb):
        # The tables are stored a section at a time; every page below
        # the secure region still gets exactly its own leaf, including
        # the pages of a last, partly used table (secure_mb=7).
        from repro.arch.pagetable import make_page_desc

        platform = small_platform(secure_bytes=secure_mb * 1024 * 1024)
        linear = LinearMap(platform, "page")
        base = platform.config.dram_base
        linear.build(base + 2 * 1024 * 1024, base + 24 * 1024 * 1024)
        limit = platform.secure_base
        for paddr in range(base, limit, PAGE_BYTES):
            desc_addr, level = linear.leaf_desc_addr(paddr)
            assert level == 3
            assert platform.bus.peek(desc_addr) == make_page_desc(paddr)
        last_table = linear.leaf_desc_addr(limit - PAGE_BYTES)[0] & ~0xFFF
        unused = range(linear.leaf_desc_addr(limit - PAGE_BYTES)[0] + 8,
                       last_table + PAGE_BYTES, 8)
        assert all(platform.bus.peek(addr) == 0 for addr in unused)
        sections = -(-(limit - base) // SECTION_BYTES)
        assert len(linear.table_pages) == 1 + 1 + sections

    def test_leaf_desc_addr_outside_map_rejected(self):
        platform, linear, _ = self._mapped_cpu("page")
        with pytest.raises(AllocationError):
            linear.leaf_desc_addr(platform.secure_base)
