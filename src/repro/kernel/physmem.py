"""Physical page allocation and the kernel linear map.

Two pieces live here:

* :class:`PageAllocator` — a free-list allocator over the kernel-usable
  part of DRAM (everything between the kernel image and the secure
  region), with per-purpose accounting.

* :class:`LinearMap` — the kernel's direct mapping of physical memory at
  ``KERNEL_VA_BASE``.  Paper section 6.2 is about exactly this map: the
  vanilla AArch64 Linux kernel maps it with **2 MB sections**, so a page
  table sharing a section with unrelated data cannot be write-protected
  on its own (the protection-granularity gap); Hypernel's modified
  kernel maps it with **4 KB pages** so each page-table page can be made
  read-only exactly.  Both modes are implemented; the mode is the knob
  for ablation B.

The boot-time construction writes descriptors with the bus backdoor
(firmware runs before measurement); *runtime* modifications go through
the kernel's page-table writer strategy so they are verified under
Hypernel.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.config import PAGE_BYTES, PAGE_WORDS, SECTION_BYTES
from repro.errors import AllocationError, ConfigurationError
from repro.hw.platform import Platform
from repro.arch.pagetable import (
    KERNEL_VA_BASE,
    index_for_level,
    make_block_desc,
    make_page_desc,
    make_table_desc,
)
from repro.utils.bitops import align_up, is_aligned
from repro.utils.stats import StatSet


class PageAllocator:
    """Address-ordered allocator for 4 KB physical pages.

    The free pool is a min-heap keyed by physical address, so ``alloc``
    always hands out the lowest free page (as a buddy allocator would).
    This makes the allocator's state a function of the free *set* alone:
    a closed allocate/free cycle restores it exactly, independent of the
    order the pages came back in.
    """

    def __init__(self, base: int, limit: int):
        if not is_aligned(base, PAGE_BYTES) or not is_aligned(limit, PAGE_BYTES):
            raise ConfigurationError("allocator bounds must be page-aligned")
        if limit <= base:
            raise ConfigurationError("allocator range is empty")
        self.base = base
        self.limit = limit
        self._free: List[int] = list(range(base, limit, PAGE_BYTES))
        self._allocated: Dict[int, str] = {}
        self.stats = StatSet("page_allocator")

    def alloc(self, purpose: str = "anon") -> int:
        """Allocate the lowest free page; returns its physical address."""
        if not self._free:
            raise AllocationError("out of physical pages")
        paddr = heapq.heappop(self._free)
        self._allocated[paddr] = purpose
        self.stats.add(f"alloc.{purpose}")
        return paddr

    def free(self, paddr: int) -> None:
        """Return a page to the free pool."""
        purpose = self._allocated.pop(paddr, None)
        if purpose is None:
            raise AllocationError(f"freeing unallocated page {paddr:#x}")
        self.stats.add(f"free.{purpose}")
        heapq.heappush(self._free, paddr)

    def purpose_of(self, paddr: int) -> Optional[str]:
        """Purpose tag of an allocated page, or ``None``."""
        return self._allocated.get(paddr)

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def allocated_pages(self) -> int:
        return len(self._allocated)


class LinearMap:
    """The kernel's direct physical mapping at ``KERNEL_VA_BASE``.

    ``mode`` is ``"page"`` (4 KB leaf descriptors — the Hypernel-patched
    kernel) or ``"section"`` (2 MB blocks — the vanilla kernel).
    """

    def __init__(self, platform: Platform, mode: str = "page"):
        if mode not in ("page", "section"):
            raise ConfigurationError(f"unknown linear-map mode {mode!r}")
        self.platform = platform
        self.mode = mode
        self.root = 0
        #: physical pages holding the linear-map translation tables
        self.table_pages: Set[int] = set()
        self._table_cursor = 0
        self._table_limit = 0

    # ------------------------------------------------------------------
    # Address conversion
    # ------------------------------------------------------------------
    def kva(self, paddr: int) -> int:
        """Kernel virtual address of a physical address."""
        return KERNEL_VA_BASE + (paddr - self.platform.config.dram_base)

    def pa(self, kvaddr: int) -> int:
        """Physical address of a kernel linear-map virtual address."""
        return self.platform.config.dram_base + (kvaddr - KERNEL_VA_BASE)

    # ------------------------------------------------------------------
    # Boot-time construction
    # ------------------------------------------------------------------
    def _alloc_table(self) -> int:
        if self._table_cursor >= self._table_limit:
            raise AllocationError("linear-map table pool exhausted")
        paddr = self._table_cursor
        self._table_cursor += PAGE_BYTES
        self.table_pages.add(paddr)
        self.platform.bus.memory.fill(paddr, PAGE_WORDS, 0)
        return paddr

    def build(self, table_pool_base: int, table_pool_limit: int) -> int:
        """Construct the map for all non-secure DRAM; returns the root.

        ``table_pool_*`` bound the physical region the boot code carves
        translation tables from (part of the kernel image reservation).
        """
        self._table_cursor = table_pool_base
        self._table_limit = table_pool_limit
        self.root = self._alloc_table()
        config = self.platform.config
        base = config.dram_base
        limit = self.platform.secure_base  # the secure region is NOT mapped
        bus = self.platform.bus

        l2_tables: Dict[int, int] = {}

        def l2_for(offset: int) -> int:
            index = index_for_level(offset, 1)
            if index not in l2_tables:
                table = self._alloc_table()
                bus.poke(self.root + index * 8, make_table_desc(table))
                l2_tables[index] = table
            return l2_tables[index]

        if self.mode == "section":
            for paddr in range(base, align_up(limit, SECTION_BYTES), SECTION_BYTES):
                offset = paddr - base
                l2 = l2_for(offset)
                desc = make_block_desc(paddr, writable=True, cacheable=True)
                bus.poke(l2 + index_for_level(offset, 2) * 8, desc)
        else:
            # One level-3 table per section, stored whole: leaf i of the
            # table starting at ``section`` maps ``section + i`` pages.
            flags = make_page_desc(base, writable=True, cacheable=True) ^ base
            for section in range(base, limit, SECTION_BYTES):
                offset = section - base
                l2 = l2_for(offset)
                table = self._alloc_table()
                bus.poke(l2 + index_for_level(offset, 2) * 8, make_table_desc(table))
                bus.memory.write_words(table, [
                    paddr | flags for paddr in range(
                        section, min(limit, section + SECTION_BYTES), PAGE_BYTES)
                ])
        return self.root

    # ------------------------------------------------------------------
    # Runtime descriptor location (used to retune attributes of a page)
    # ------------------------------------------------------------------
    def leaf_desc_addr(self, paddr: int) -> Tuple[int, int]:
        """Locate the leaf descriptor mapping physical page ``paddr``.

        Returns ``(descriptor_paddr, leaf_level)`` where leaf_level is 2
        in section mode and 3 in page mode.  Walks the real tables with
        backdoor reads (maintenance path, timing charged by callers).
        """
        offset = paddr - self.platform.config.dram_base
        bus = self.platform.bus
        l1_desc = bus.peek(self.root + index_for_level(offset, 1) * 8)
        if not l1_desc & 1:
            raise AllocationError(f"paddr {paddr:#x} not covered by linear map")
        l2 = l1_desc & ~0xFFF & ((1 << 48) - 1)
        l2_addr = l2 + index_for_level(offset, 2) * 8
        l2_desc = bus.peek(l2_addr)
        if not l2_desc & 1:
            raise AllocationError(f"paddr {paddr:#x} not covered by linear map")
        if not l2_desc & 2:  # block: section mode leaf
            return l2_addr, 2
        l3 = l2_desc & ~0xFFF & ((1 << 48) - 1)
        return l3 + index_for_level(offset, 3) * 8, 3
