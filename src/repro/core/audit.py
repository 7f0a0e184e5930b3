"""Runtime security-invariant auditor for Hypersec.

Paper section 5.2.1 calls the module's job "Verifying the OS Kernel
Page Table", and the Discussion section argues Hypersec's ~1.5 KLoC is
small enough to be formally verified.  This module is the executable
counterpart of that argument: it states Hypernel's security invariants
as code and *checks them against the actual machine state* — walking
the real translation tables in simulated memory, not Hypersec's
bookkeeping.

The invariant definitions and the checking engine live in
:mod:`repro.security.fuzz.invariants`, shared with the offline snapshot
checker and the hypercall fuzzer; this module contributes the *live*
evidence channel — the adapter that lets the shared engine read the
running platform, which :meth:`~repro.core.hypersec.Hypersec.audit`
runs.

Invariants audited (each maps to a paper claim):

``NO_SECURE_MAPPING``
    No valid kernel/user leaf maps any physical page of the secure
    region (§5.2).
``TABLES_READ_ONLY``
    Every registered translation-table page is mapped read-only in the
    kernel linear map (§5.2.1/§6.2).
``NO_WRITABLE_TABLE_ALIAS``
    No leaf anywhere maps a table page writable (§5.2.1).
``W_XOR_X``
    No kernel leaf is simultaneously writable and executable (§5.2.1).
``MONITORED_UNCACHED``
    Every page holding a registered monitored region is mapped
    non-cacheable, so the MBM sees all writes (§5.3).
``BITMAP_CONSISTENT``
    The MBM bitmap bits equal exactly the union of registered regions
    (§5.3): no lost coverage, no stray bits.
``TTBR_INTEGRITY``
    Live TTBR0/TTBR1 point at registered roots (§5.2.2).
``TABLE_TOPOLOGY``
    The table graph is well-formed: table pointers stay inside backed,
    non-secure RAM (hostile pointers are reported, not followed).

The auditor runs after :meth:`~repro.core.hypersec.Hypersec.protect`
as a boot-time verification, and can be re-run at any time (tests run
it after every attack scenario).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.config import PAGE_BYTES
from repro.errors import AllocationError, MemoryRangeError
from repro.arch.pagetable import Descriptor
from repro.security.fuzz.invariants import Evidence, Geometry

__all__ = ["LiveEvidence"]


class LiveEvidence(Evidence):
    """The running machine as seen by Hypersec itself.

    Raw access goes through the platform's backdoor (``bus.peek`` and
    ``bus.peek_words``), so the table walk reads real descriptors, but
    the *topology* inputs (registered tables, monitored pages, recorded
    registers) come from Hypersec's own bookkeeping.  That makes this
    channel fast and always available — and blind to bookkeeping
    desync, which is why ``claimed_tables`` returns ``None`` here and
    the dissimilar snapshot channel exists.
    """

    def __init__(self, hypersec):
        self.hypersec = hypersec
        self.platform = hypersec.platform
        config = self.platform.config
        self.geometry = Geometry(
            dram_base=config.dram_base,
            dram_limit=config.dram_base + config.dram_bytes,
            secure_base=self.platform.secure_base,
            secure_limit=self.platform.secure_limit,
        )

    # -- raw access ----------------------------------------------------
    def peek(self, paddr: int) -> int:
        return self.platform.bus.peek(paddr)

    def peek_words(self, paddr: int, nwords: int) -> List[int]:
        return self.platform.bus.peek_words(paddr, nwords)

    def backed(self, paddr: int) -> bool:
        return self.platform.memory.contains(paddr)

    def reg(self, name: str) -> int:
        return self.hypersec.cpu.regs.read(name)

    # -- translation topology -----------------------------------------
    def roots(self) -> List[int]:
        roots = {self.hypersec.kernel_root & ~(PAGE_BYTES - 1)}
        roots.update(self.hypersec.root_tables)
        return sorted(roots)

    def table_pages(self) -> Set[int]:
        return set(self.hypersec.table_pages)

    # -- linear-map view ----------------------------------------------
    def has_linear_view(self) -> bool:
        return self.hypersec.kernel is not None

    def linear_leaf(self, paddr: int) -> Optional[Descriptor]:
        linear = self.hypersec.kernel.linear_map
        try:
            desc_addr, _level = linear.leaf_desc_addr(paddr)
            return Descriptor(self.platform.bus.peek(desc_addr))
        except (AllocationError, MemoryRangeError):
            return None

    # -- monitoring ----------------------------------------------------
    def monitored_pages(self) -> Set[int]:
        if self.hypersec.mbm is None:
            return set()
        return set(self.hypersec._monitored_page_refs)

    def expected_bitmap(self) -> Optional[Dict[int, int]]:
        mbm = self.hypersec.mbm
        if mbm is None:
            return None
        expected: Dict[int, int] = {}
        seen_regions = set()
        for ranges in self.hypersec._region_index.values():
            for base, end, sid in ranges:
                if (base, end, sid) in seen_regions:
                    continue
                seen_regions.add((base, end, sid))
                for word_addr, mask in mbm.bitmap.words_for_range(
                        base, end - base):
                    expected[word_addr] = expected.get(word_addr, 0) | mask
        return expected

    def bitmap_storage(self) -> Optional[Tuple[int, int]]:
        mbm = self.hypersec.mbm
        if mbm is None:
            return None
        return mbm.bitmap_storage

    # -- recorded policy ----------------------------------------------
    def recorded_kernel_root(self) -> Optional[int]:
        return self.hypersec.kernel_root

    def recorded_root_tables(self) -> Set[int]:
        return set(self.hypersec.root_tables)

