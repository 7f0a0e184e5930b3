"""User virtual-memory management: VMAs, demand paging, COW, fork.

Each process owns an ``MM``: a real 3-level translation-table tree in
simulated physical memory plus a VMA list.  All runtime descriptor
writes go through the kernel's :class:`~repro.kernel.pgtable_mgmt.PgTableWriter`,
so under Hypernel every mapping created or torn down is one verified
hypercall — the mechanistic source of Hypernel's fork/exec/mmap
overheads in Table 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.config import PAGE_BYTES, PAGE_WORDS
from repro.errors import (
    AllocationError,
    PermissionFault,
    SecurityViolation,
    SimulationError,
    TranslationFault,
)
from repro.arch.pagetable import (
    index_for_level,
    invalid_desc,
    make_page_desc,
    make_table_desc,
)
from repro.utils.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass
class VMA:
    """One user virtual-memory area."""

    start: int
    end: int
    writable: bool
    kind: str  # "text", "data", "stack", "anon", "file"
    file_key: Optional[str] = None

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end


@dataclass
class MM:
    """One address space: translation tables + VMAs + page bookkeeping."""

    pgd: int
    asid: int
    vmas: List[VMA] = field(default_factory=list)
    #: user page mappings for iteration (the tables stay authoritative
    #: for translation; this mirror makes fork/teardown loops cheap)
    pages: Dict[int, int] = field(default_factory=dict)
    #: software COW marks per mapped user page
    cow: Dict[int, bool] = field(default_factory=dict)
    #: translation-table pages by index path, e.g. (i,) -> L2, (i, j) -> L3
    tables: Dict[tuple, int] = field(default_factory=dict)

    def find_vma(self, vaddr: int) -> Optional[VMA]:
        for vma in self.vmas:
            if vma.contains(vaddr):
                return vma
        return None


class UserVmm:
    """The kernel's user-memory subsystem."""

    #: default user layout bases
    TEXT_BASE = 0x0040_0000
    DATA_BASE = 0x1000_0000
    MMAP_BASE = 0x2000_0000
    STACK_TOP = 0x3F_F000_0000

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._next_asid = 1
        # Hardware ASIDs are a small finite namespace; destroyed address
        # spaces return theirs to the pool (lowest-first reuse), exactly
        # as an ASID-rollover kernel would after a generation bump.
        self._free_asids: List[int] = []
        self._page_refs: Dict[int, int] = {}
        self.stats = StatSet("vmm")

    # ------------------------------------------------------------------
    # MM lifecycle
    # ------------------------------------------------------------------
    def create_mm(self) -> MM:
        pgd = self._alloc_table(is_root=True)
        if self._free_asids:
            asid = heapq.heappop(self._free_asids)
        else:
            asid = self._next_asid
            self._next_asid += 1
        mm = MM(pgd=pgd, asid=asid)
        self.stats.add("mm_created")
        return mm

    def destroy_mm(self, mm: MM) -> None:
        """Unmap everything and free pages/tables."""
        kernel = self.kernel
        for vaddr in list(mm.pages):
            self._unmap_page(mm, vaddr)
        for path in sorted(mm.tables, key=len, reverse=True):
            table = mm.tables.pop(path)
            # Unlink from the parent before retiring the page: Hypersec
            # refuses to release a table a live tree still references.
            parent = mm.tables[path[:-1]] if len(path) > 1 else mm.pgd
            kernel.pgwriter.write_desc(
                parent + path[-1] * 8, invalid_desc(), level=len(path)
            )
            kernel.pgwriter.on_table_free(table)
            kernel.allocator.free(table)
        kernel.pgwriter.on_table_free(mm.pgd)
        kernel.allocator.free(mm.pgd)
        kernel.cpu.tlbi_asid(mm.asid)
        heapq.heappush(self._free_asids, mm.asid)
        self.stats.add("mm_destroyed")

    def _alloc_table(self, is_root: bool = False) -> int:
        kernel = self.kernel
        table = kernel.allocator.alloc("pgtable")
        # New tables must start invalid; the kernel zeroes them before
        # handing them to the walker (and before Hypersec locks them).
        kernel.zero_page(table)
        kernel.pgwriter.on_table_alloc(table, is_root=is_root)
        return table

    # ------------------------------------------------------------------
    # VMA management
    # ------------------------------------------------------------------
    def add_vma(
        self,
        mm: MM,
        start: int,
        size: int,
        writable: bool,
        kind: str,
        file_key: Optional[str] = None,
    ) -> VMA:
        end = start + size
        for existing in mm.vmas:
            if start < existing.end and existing.start < end:
                raise AllocationError(
                    f"VMA [{start:#x},{end:#x}) overlaps existing "
                    f"[{existing.start:#x},{existing.end:#x})"
                )
        vma = VMA(start, end, writable, kind, file_key)
        mm.vmas.append(vma)
        self.stats.add("vma_created")
        return vma

    def remove_vma(self, mm: MM, vma: VMA) -> None:
        """munmap: drop the VMA and every page mapped inside it."""
        for vaddr in [v for v in mm.pages if vma.contains(v)]:
            self._unmap_page(mm, vaddr)
        mm.vmas.remove(vma)
        self.kernel.cpu.tlbi_asid(mm.asid)
        self.stats.add("vma_removed")

    # ------------------------------------------------------------------
    # Page mapping (all descriptor writes via the pgwriter)
    # ------------------------------------------------------------------
    def _ensure_tables(self, mm: MM, vaddr: int) -> int:
        """Ensure L2/L3 tables exist for ``vaddr``; return the L3 table."""
        kernel = self.kernel
        i1 = index_for_level(vaddr, 1)
        if (i1,) not in mm.tables:
            l2 = self._alloc_table()
            mm.tables[(i1,)] = l2
            kernel.pgwriter.write_desc(mm.pgd + i1 * 8, make_table_desc(l2), level=1)
        l2 = mm.tables[(i1,)]
        i2 = index_for_level(vaddr, 2)
        if (i1, i2) not in mm.tables:
            l3 = self._alloc_table()
            mm.tables[(i1, i2)] = l3
            kernel.pgwriter.write_desc(l2 + i2 * 8, make_table_desc(l3), level=2)
        return mm.tables[(i1, i2)]

    def map_page(
        self,
        mm: MM,
        vaddr: int,
        paddr: int,
        writable: bool,
        cow: bool = False,
        executable: bool = False,
    ) -> None:
        """Install a user 4 KB mapping."""
        vaddr &= ~(PAGE_BYTES - 1)
        l3 = self._ensure_tables(mm, vaddr)
        desc = make_page_desc(
            paddr,
            writable=writable and not cow,
            executable=executable,
            cacheable=True,
            user=True,
            cow=cow,
        )
        self.kernel.pgwriter.write_desc(
            l3 + index_for_level(vaddr, 3) * 8, desc, level=3
        )
        mm.pages[vaddr] = paddr
        mm.cow[vaddr] = cow
        self._page_refs[paddr] = self._page_refs.get(paddr, 0) + 1
        self.kernel.env.page_lifecycle(1)
        self.stats.add("pages_mapped")

    def _unmap_page(self, mm: MM, vaddr: int) -> None:
        kernel = self.kernel
        l3 = mm.tables.get(
            (index_for_level(vaddr, 1), index_for_level(vaddr, 2))
        )
        if l3 is not None:
            kernel.pgwriter.write_desc(
                l3 + index_for_level(vaddr, 3) * 8, invalid_desc(), level=3
            )
        paddr = mm.pages.pop(vaddr)
        mm.cow.pop(vaddr, None)
        self._put_page(paddr)
        self.kernel.env.page_lifecycle(1)
        self.stats.add("pages_unmapped")

    def _put_page(self, paddr: int) -> None:
        refs = self._page_refs.get(paddr, 0) - 1
        if refs <= 0:
            self._page_refs.pop(paddr, None)
            if self.kernel.allocator.purpose_of(paddr) is not None:
                self.kernel.allocator.free(paddr)
        else:
            self._page_refs[paddr] = refs

    # ------------------------------------------------------------------
    # Fault handling: demand paging and copy-on-write
    # ------------------------------------------------------------------
    def handle_fault(self, mm: MM, vaddr: int, is_write: bool) -> None:
        """Service a user page fault (the kernel's do_page_fault)."""
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.fault_entry)
        self.stats.add("faults")
        page_va = vaddr & ~(PAGE_BYTES - 1)
        vma = mm.find_vma(vaddr)
        if vma is None:
            raise SecurityViolation(
                f"segmentation fault at {vaddr:#x} (no VMA)", policy="segv"
            )
        if is_write and not vma.writable:
            raise SecurityViolation(
                f"write to read-only VMA at {vaddr:#x}", policy="segv"
            )
        if page_va in mm.pages:
            if is_write and mm.cow.get(page_va):
                self._cow_break(mm, page_va, vma)
                return
            raise SecurityViolation(
                f"unexpected fault on mapped page {vaddr:#x}", policy="segv"
            )
        # Demand paging: anonymous pages are zeroed, file pages "read in".
        paddr = kernel.allocator.alloc("user")
        kernel.zero_page(paddr)  # clear_page / read data
        self.stats.add("demand_pages")
        self.map_page(
            mm,
            page_va,
            paddr,
            writable=vma.writable,
            executable=vma.kind == "text",
        )

    def _cow_break(self, mm: MM, page_va: int, vma: VMA) -> None:
        """Resolve a COW write fault: copy or re-arm the page."""
        kernel = self.kernel
        old_paddr = mm.pages[page_va]
        self.stats.add("cow_breaks")
        if self._page_refs.get(old_paddr, 1) > 1:
            new_paddr = kernel.allocator.alloc("user")
            kernel.cpu.read_block(kernel.linear_map.kva(old_paddr), PAGE_WORDS)
            kernel.cpu.write_block(kernel.linear_map.kva(new_paddr), PAGE_WORDS)
            kernel.memory_copy(old_paddr, new_paddr, PAGE_WORDS)
            self._page_refs[old_paddr] -= 1
            self._page_refs[new_paddr] = 0  # map_page will bump it
        else:
            new_paddr = old_paddr
            self._page_refs[new_paddr] -= 1  # rebalanced by map_page
        mm.pages.pop(page_va)
        mm.cow.pop(page_va, None)
        self.map_page(
            mm,
            page_va,
            new_paddr,
            writable=True,
            executable=vma.kind == "text",
        )
        kernel.cpu.tlbi_va(page_va)

    # ------------------------------------------------------------------
    # fork()
    # ------------------------------------------------------------------
    def fork_mm(self, parent: MM) -> MM:
        """Duplicate an address space with COW sharing (copy_mm)."""
        kernel = self.kernel
        child = self.create_mm()
        for vma in parent.vmas:
            child.vmas.append(VMA(vma.start, vma.end, vma.writable, vma.kind, vma.file_key))
        for vaddr, paddr in list(parent.pages.items()):
            vma = parent.find_vma(vaddr)
            writable = vma.writable if vma else True
            executable = vma.kind == "text" if vma else False
            if writable:
                # Re-arm the parent PTE as COW/read-only ...
                if not parent.cow.get(vaddr):
                    self._rewrite_pte(parent, vaddr, paddr, cow=True, executable=executable)
                    parent.cow[vaddr] = True
                # ... and share the frame COW with the child.
                self.map_page(child, vaddr, paddr, writable=True, cow=True,
                              executable=executable)
            else:
                self.map_page(child, vaddr, paddr, writable=False,
                              executable=executable)
        kernel.cpu.tlbi_asid(parent.asid)
        self.stats.add("mm_forked")
        return child

    def _rewrite_pte(
        self, mm: MM, vaddr: int, paddr: int, cow: bool, executable: bool
    ) -> None:
        l3 = mm.tables[
            (index_for_level(vaddr, 1), index_for_level(vaddr, 2))
        ]
        desc = make_page_desc(
            paddr,
            writable=False,
            executable=executable,
            cacheable=True,
            user=True,
            cow=cow,
        )
        self.kernel.pgwriter.write_desc(l3 + index_for_level(vaddr, 3) * 8, desc, level=3)

    # ------------------------------------------------------------------
    # User access with fault retry (used by workload drivers)
    # ------------------------------------------------------------------
    def user_touch(self, mm: MM, vaddr: int, is_write: bool = False, value: int = 0) -> int:
        """Perform one EL0 access, servicing faults like hardware+kernel.

        ``mm`` must be the address space the CPU is currently running
        (TTBR0/ASID), otherwise translations would resolve against a
        different process's tables.
        """
        cpu = self.kernel.cpu
        if cpu.mmu.asid != mm.asid:
            raise SimulationError(
                f"user_touch against ASID {mm.asid} while CPU runs "
                f"ASID {cpu.mmu.asid} — context-switch first"
            )
        for _ in range(4):
            try:
                if is_write:
                    cpu.write(vaddr, value, el=0)
                    return 0
                return cpu.read(vaddr, el=0)
            except (TranslationFault, PermissionFault):
                self.handle_fault(mm, vaddr, is_write)
        raise SecurityViolation(
            f"fault livelock at {vaddr:#x}", policy="segv"
        )
