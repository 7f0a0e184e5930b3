"""KVM/ARM-style hypervisor model.

The guest kernel runs unmodified (direct page-table writes, no TVM
traps); isolation comes from stage-2 translation:

* IPA space is identity-sized with guest DRAM; stage-2 mappings are
  installed **on demand**, each first touch costing a VM exit, fault
  handling and a stage-2 table update — like KVM's user_mem_abort path.
* Every guest TLB miss then walks two stages (see
  :mod:`repro.arch.mmu`), the paper's "two stages of address translation
  for every memory access".

Stage-2 tables live in host-reserved memory at the top of DRAM (the
same area Hypernel would use as its secure space, which keeps the
memory budget of the two configurations comparable).
"""

from __future__ import annotations

from typing import List

from repro.config import PAGE_BYTES, PAGE_WORDS, SECTION_BYTES, WORD_BYTES
from repro.errors import AllocationError, SecurityViolation, Stage2Fault
from repro.hw.platform import Platform
from repro.arch.cpu import CPUCore
from repro.arch.exceptions import EL2Vector
from repro.arch.pagetable import index_for_level, make_page_desc, make_table_desc
from repro.arch.registers import HCR_VM
from repro.utils.stats import StatSet


class KvmHypervisor(EL2Vector):
    """The EL2 resident for the KVM-guest configuration."""

    def __init__(self, platform: Platform, cpu: CPUCore):
        self.platform = platform
        self.cpu = cpu
        self.costs = platform.config.costs
        self.stats = StatSet("kvm")
        # Host memory for stage-2 tables: the reserved top-of-DRAM area.
        self._table_cursor = platform.secure_base
        self._table_limit = platform.secure_limit
        self._tables: dict = {}
        self.s2_root = 0
        #: guest physical (== IPA) range the hypervisor will back
        self.guest_base = platform.config.dram_base
        self.guest_limit = platform.secure_base

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Install at EL2: vector, empty stage-2 root, HCR_EL2.VM."""
        self.s2_root = self._alloc_table()
        self.cpu.install_el2_vector(self)
        self.cpu.regs.write("VTTBR_EL2", self.s2_root)
        self.cpu.regs.set_bits("HCR_EL2", HCR_VM)

    def _alloc_table(self) -> int:
        if self._table_cursor >= self._table_limit:
            raise AllocationError("host out of stage-2 table memory")
        paddr = self._table_cursor
        self._table_cursor += PAGE_BYTES
        self.platform.bus.memory.fill(paddr, PAGE_WORDS, 0)
        return paddr

    # ------------------------------------------------------------------
    # Stage-2 mapping
    # ------------------------------------------------------------------
    def map_ipa(self, ipa: int, writable: bool = True) -> None:
        """Install the stage-2 mapping for one IPA page (identity PA).

        Descriptor writes go through the CPU at EL2 (host kernel memory
        accesses: cacheable, fully charged).
        """
        ipa &= ~(PAGE_BYTES - 1)
        leaf = self._leaf_table(ipa) + index_for_level(ipa, 3) * 8
        self._write_host(leaf, make_page_desc(ipa, writable=writable))
        self.stats.add("stage2_pages_mapped")

    def _leaf_table(self, ipa: int) -> int:
        """The level-3 table covering ``ipa``, installing the level-2
        and level-3 tables on the way down if they are missing."""
        table = self.s2_root
        for level in (1, 2):
            key = (level, index_for_level(ipa, 1),
                   index_for_level(ipa, 2) if level == 2 else 0)
            desc_addr = table + index_for_level(ipa, level) * 8
            if key in self._tables:
                table = self._tables[key]
            else:
                new_table = self._alloc_table()
                self._tables[key] = new_table
                self._write_host(desc_addr, make_table_desc(new_table))
                table = new_table
        return table

    def _write_host(self, paddr: int, value: int) -> None:
        # Host-side store: EL2 identity map, cacheable.
        saved = self.cpu.current_el
        self.cpu.current_el = 2
        try:
            self.cpu.write(paddr, value)
        finally:
            self.cpu.current_el = saved

    def _write_host_run(self, paddr: int, values: List[int]) -> None:
        """Host-side stores of ``values`` to consecutive words at
        ``paddr``, charged exactly as one :meth:`_write_host` per word.

        An EL2 store translates through the identity map with no side
        effect, so each word is one CPU write into the cache hierarchy.
        The first store to each line goes through the caches (it may
        miss, fill and evict); the rest of that line then hits L1, which
        is counted in one step per line.  The words land in memory with
        one bulk store.
        """
        caches = self.platform.caches
        l1 = caches.l1
        clock = self.platform.clock
        line_bytes = l1.line_bytes
        l1_hit = self.costs.l1_hit
        addr = paddr
        end = paddr + len(values) * WORD_BYTES
        while addr < end:
            line_end = min(end, (addr & caches._line_mask) + line_bytes)
            caches.write(addr, values[(addr - paddr) // WORD_BYTES], True)
            hits = (line_end - addr) // WORD_BYTES - 1
            if hits:
                caches._cached_writes += hits
                l1._hits += hits
                clock.advance(hits * l1_hit)
            addr = line_end
        self.cpu._writes += len(values)
        self.platform.bus.memory.write_words(paddr, values)

    # ------------------------------------------------------------------
    # EL2Vector interface
    # ------------------------------------------------------------------
    def handle_stage2_fault(self, cpu: CPUCore, fault: Stage2Fault) -> None:
        """user_mem_abort: back the faulting IPA and resume the guest."""
        ipa = fault.ipa & ~(PAGE_BYTES - 1)
        if not self.guest_base <= ipa < self.guest_limit:
            raise SecurityViolation(
                f"guest touched IPA {ipa:#x} outside its memory",
                policy="stage2",
            )
        cpu.compute(self.costs.stage2_fault_handling)
        self.map_ipa(ipa)
        cpu.mmu.invalidate_stage2()
        self.stats.add("stage2_faults")

    def handle_hvc(self, cpu: CPUCore, func: int, args) -> int:
        """PSCI-style guest hypercalls (none needed by the workloads)."""
        self.stats.add("hvc")
        return 0

    def handle_trapped_msr(self, cpu: CPUCore, register: str, value: int) -> None:
        """KVM does not set TVM; emulate transparently if it ever fires."""
        self.stats.add("trapped_msr")
        cpu.regs.write(register, value)

    # ------------------------------------------------------------------
    # Warm-up helper (steady-state measurement support)
    # ------------------------------------------------------------------
    def prepopulate(self, base: int, limit: int) -> None:
        """Eagerly back the page-aligned IPA range ``[base, limit)``
        (like a warmed-up guest).

        Same tables, bytes, cycles and counters as :meth:`map_ipa` on
        every page in turn, written one level-3 table at a time.
        """
        ipa = base
        while ipa < limit:
            run_end = min(limit, (ipa | (SECTION_BYTES - 1)) + 1)
            table = self._leaf_table(ipa)
            flags = make_page_desc(ipa) ^ ipa
            leaves = [page | flags for page in range(ipa, run_end, PAGE_BYTES)]
            self._write_host_run(table + index_for_level(ipa, 3) * 8, leaves)
            self.stats.add("stage2_pages_mapped", len(leaves))
            ipa = run_end
        self.cpu.mmu.invalidate_stage2()
