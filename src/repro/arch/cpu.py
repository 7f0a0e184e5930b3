"""The CPU core model.

The core does not fetch and decode an instruction stream; kernel and
workload code *is* Python code that calls into this model for everything
architecturally visible:

* :meth:`CPUCore.read` / :meth:`CPUCore.write` / block variants — memory
  accesses, fully translated through the MMU and cache hierarchy.
* :meth:`CPUCore.msr` / :meth:`CPUCore.mrs` — system-register accesses,
  with ``HCR_EL2.TVM`` trapping to the installed EL2 vector.
* :meth:`CPUCore.hvc` — hypercalls into EL2.
* :meth:`CPUCore.compute` — cycles for unmodelled straight-line work.

Under nested paging, stage-2 faults raised mid-access trigger a VM exit
to the EL2 vector (KVM model) and the access is retried, charging the
world-switch costs — the mechanism behind the KVM columns of Table 1.
"""

from __future__ import annotations

from typing import List

from repro.config import PAGE_BYTES, WORD_BYTES
from repro.errors import SimulationError, Stage2Fault, TrappedInstruction
from repro.hw.platform import Platform
from repro.arch.exceptions import EL1, EL2, EL2Vector
from repro.arch.mmu import MMU, TranslationResult
from repro.arch.registers import SystemRegisters, VM_CONTROL_REGISTERS
from repro.utils.stats import StatSet

_MAX_STAGE2_RETRIES = 8


class CPUCore:
    """One simulated core wired to a :class:`~repro.hw.platform.Platform`."""

    def __init__(self, platform: Platform):
        self.platform = platform
        self.clock = platform.clock
        self.costs = platform.config.costs
        self.regs = SystemRegisters()
        self.mmu = MMU(
            platform.caches,
            self.regs,
            self.costs,
            tlb_entries=platform.config.tlb_entries,
            stage2_tlb_entries=platform.config.stage2_tlb_entries,
        )
        self.current_el = EL1
        self.el2_vector: EL2Vector | None = None
        self._reads = 0
        self._writes = 0
        self.stats = StatSet("cpu", self, "_reads", "_writes")

    # ------------------------------------------------------------------
    # EL2 installation
    # ------------------------------------------------------------------
    def install_el2_vector(self, vector: EL2Vector) -> None:
        """Install the EL2 resident (Hypersec or the KVM model)."""
        self.el2_vector = vector

    # ------------------------------------------------------------------
    # Translation with VM-exit retry
    # ------------------------------------------------------------------
    def _translate(self, vaddr: int, is_write: bool, el: int) -> TranslationResult:
        for _ in range(_MAX_STAGE2_RETRIES):
            try:
                return self.mmu.translate(vaddr, is_write=is_write, el=el)
            except Stage2Fault as fault:
                if self.el2_vector is None:
                    raise
                self._vm_exit(fault)
        raise SimulationError(
            f"stage-2 fault livelock translating {vaddr:#x}"
        )

    def _vm_exit(self, fault: Stage2Fault) -> None:
        """Take a VM exit to EL2 for a stage-2 fault, then re-enter."""
        self.stats.add("vm_exits")
        self.clock.advance(self.costs.vm_exit)
        saved_el = self.current_el
        self.current_el = EL2
        try:
            assert self.el2_vector is not None
            self.el2_vector.handle_stage2_fault(self, fault)
        finally:
            self.current_el = saved_el
        self.clock.advance(self.costs.vm_enter)

    # ------------------------------------------------------------------
    # Memory access
    # ------------------------------------------------------------------
    def read(self, vaddr: int, el: int | None = None) -> int:
        """Read one 64-bit word at virtual address ``vaddr``.

        The common case — EL1 access, stage 2 off, MMU on, translation
        answered by the MMU's one-entry fast cache — is inlined end to
        end (translate + cache access) with accounting identical to the
        layered path; anything else falls through to it.
        """
        el = self.current_el if el is None else el
        mmu = self.mmu
        if (
            el == 1
            and (vaddr >> 12) == mmu._fast_vpage
            and mmu.asid == mmu._fast_asid
            and mmu.vmid == mmu._fast_vmid
            and mmu.tlb.epoch == mmu._fast_epoch
            and mmu.regs._mmu_enabled
            and not mmu.regs._stage2_enabled
        ):
            # EL1 reads need no permission check (user/exec/write only).
            entry = mmu._fast_entry
            mmu.tlb._hits += 1
            self._reads += 1
            paddr = entry.page_paddr | (vaddr & 4095)
            caches = self.platform.caches
            if entry.cacheable:
                caches._cached_reads += 1
                l1 = caches.l1
                line = paddr & caches._line_mask
                lines = l1._sets.get((line >> l1._line_shift) & l1._set_mask)
                if lines is not None and line in lines:
                    lines.move_to_end(line)
                    l1._hits += 1
                    self.clock.advance(self.costs.l1_hit)
                    return self.platform.bus.memory.read_word(paddr)
                caches._ensure_resident(paddr, "cpu")
                return self.platform.bus.memory.read_word(paddr)
            caches._uncached_reads += 1
            return self.platform.bus.read(paddr)
        result = self._translate(vaddr, is_write=False, el=el)
        self._reads += 1
        return self.platform.caches.read(result.paddr, result.cacheable)

    def write(self, vaddr: int, value: int, el: int | None = None) -> None:
        """Write one 64-bit word at virtual address ``vaddr``.

        Mirrors :meth:`read`'s inline fast path; a write to a
        non-writable page (permission fault, COW break) falls through to
        the layered path, which raises with full context.
        """
        el = self.current_el if el is None else el
        mmu = self.mmu
        if (
            el == 1
            and (vaddr >> 12) == mmu._fast_vpage
            and mmu.asid == mmu._fast_asid
            and mmu.vmid == mmu._fast_vmid
            and mmu.tlb.epoch == mmu._fast_epoch
            and mmu.regs._mmu_enabled
            and not mmu.regs._stage2_enabled
        ):
            entry = mmu._fast_entry
            if entry.writable:
                mmu.tlb._hits += 1
                self._writes += 1
                paddr = entry.page_paddr | (vaddr & 4095)
                caches = self.platform.caches
                if entry.cacheable:
                    caches._cached_writes += 1
                    l1 = caches.l1
                    line = paddr & caches._line_mask
                    lines = l1._sets.get((line >> l1._line_shift) & l1._set_mask)
                    if lines is not None and line in lines:
                        lines.move_to_end(line)
                        lines[line] = True
                        l1._hits += 1
                        self.clock.advance(self.costs.l1_hit)
                        self.platform.bus.memory.write_word(paddr, value)
                        return
                    caches._ensure_resident(paddr, "cpu")
                    l1.mark_dirty(line)
                    self.platform.bus.memory.write_word(paddr, value)
                    return
                caches._uncached_writes += 1
                self.platform.bus.write(paddr, value)
                return
        result = self._translate(vaddr, is_write=True, el=el)
        self._writes += 1
        self.platform.caches.write(result.paddr, value, result.cacheable)

    def write_block(self, vaddr: int, nwords: int, el: int | None = None) -> None:
        """Model a bulk sequential write of ``nwords`` words at ``vaddr``.

        Used for data streams whose individual values the simulation does
        not track; the covered ranges still reach the bus (and hence the
        MBM) when the pages are non-cacheable.
        """
        el = self.current_el if el is None else el
        # Fast path: the run fits in one page (page-aligned bulk ops —
        # zero_page, image builds — always do), skipping the split list.
        room = (PAGE_BYTES - (vaddr & (PAGE_BYTES - 1))) // WORD_BYTES
        if nwords <= room:
            result = self._translate(vaddr, is_write=True, el=el)
            self.stats.add("block_write_words", nwords)
            if result.cacheable:
                self.platform.caches.touch_block(result.paddr, nwords, is_write=True)
            else:
                self.platform.bus.write_block(result.paddr, nwords)
            return
        for page_vaddr, page_words in self._split_pages(vaddr, nwords):
            result = self._translate(page_vaddr, is_write=True, el=el)
            self.stats.add("block_write_words", page_words)
            if result.cacheable:
                self.platform.caches.touch_block(
                    result.paddr, page_words, is_write=True
                )
            else:
                self.platform.bus.write_block(result.paddr, page_words)

    def read_block(self, vaddr: int, nwords: int, el: int | None = None) -> None:
        """Model a bulk sequential read (timing only)."""
        el = self.current_el if el is None else el
        for page_vaddr, page_words in self._split_pages(vaddr, nwords):
            result = self._translate(page_vaddr, is_write=False, el=el)
            self.stats.add("block_read_words", page_words)
            if result.cacheable:
                self.platform.caches.touch_block(
                    result.paddr, page_words, is_write=False
                )
            else:
                self.clock.advance(
                    self.platform.dram.burst_cycles(result.paddr, page_words)
                )

    @staticmethod
    def _split_pages(vaddr: int, nwords: int) -> List[tuple[int, int]]:
        """Split a word run into (page-local vaddr, word count) chunks."""
        chunks: List[tuple[int, int]] = []
        remaining = nwords
        cursor = vaddr
        while remaining > 0:
            room = (PAGE_BYTES - (cursor & (PAGE_BYTES - 1))) // WORD_BYTES
            take = min(remaining, room)
            chunks.append((cursor, take))
            cursor += take * WORD_BYTES
            remaining -= take
        return chunks

    def compute(self, cycles: int) -> None:
        """Charge ``cycles`` of straight-line (non-memory) execution."""
        self.clock.advance(cycles)

    # ------------------------------------------------------------------
    # System-register access (MSR/MRS) with TVM trapping
    # ------------------------------------------------------------------
    def msr(self, register: str, value: int) -> None:
        """Write a system register from the current exception level.

        When executed at EL1 with HCR_EL2.TVM set, writes to the
        VM-control registers trap to the installed EL2 vector — the
        mechanism of paper section 5.2.2.
        """
        if (
            self.current_el == EL1
            and register in VM_CONTROL_REGISTERS
            and self.regs.tvm_enabled
            and self.el2_vector is not None
        ):
            self.stats.add("trapped_msr")
            self.clock.advance(self.costs.trap_entry)
            saved_el = self.current_el
            self.current_el = EL2
            try:
                self.el2_vector.handle_trapped_msr(self, register, value)
            finally:
                self.current_el = saved_el
            self.clock.advance(self.costs.trap_exit)
            return
        if self.current_el == EL1 and register.endswith("_EL2"):
            raise TrappedInstruction(
                f"EL1 attempted to write EL2 register {register}", register, value
            )
        self.stats.add("msr")
        self.regs.write(register, value)

    def mrs(self, register: str) -> int:
        """Read a system register (reads are not trapped by TVM)."""
        if self.current_el == EL1 and register.endswith("_EL2"):
            raise TrappedInstruction(
                f"EL1 attempted to read EL2 register {register}", register, 0
            )
        return self.regs.read(register)

    # ------------------------------------------------------------------
    # Hypercall (HVC)
    # ------------------------------------------------------------------
    def hvc(self, func: int, *args: int) -> int:
        """Execute a hypercall into the installed EL2 vector."""
        if self.el2_vector is None:
            raise SimulationError("HVC executed but nothing is installed at EL2")
        self.stats.add("hvc")
        self.clock.advance(self.costs.hvc_entry)
        saved_el = self.current_el
        self.current_el = EL2
        try:
            result = self.el2_vector.handle_hvc(self, func, args)
        finally:
            self.current_el = saved_el
        self.clock.advance(self.costs.hvc_exit)
        return result

    # ------------------------------------------------------------------
    # TLB maintenance instructions
    # ------------------------------------------------------------------
    def tlbi_all(self) -> None:
        """TLBI VMALLE1: drop all stage-1 TLB entries."""
        self.stats.add("tlbi")
        self.mmu.invalidate_all()

    def tlbi_asid(self, asid: int) -> None:
        """TLBI ASIDE1: drop entries for one ASID."""
        self.stats.add("tlbi")
        self.mmu.invalidate_asid(asid)

    def tlbi_va(self, vaddr: int) -> None:
        """TLBI VAE1: drop entries for one page."""
        self.stats.add("tlbi")
        self.mmu.invalidate_va(vaddr)

    def __repr__(self) -> str:
        return f"CPUCore(EL{self.current_el}, {self.clock.now} cycles)"
