"""Hypersec: the EL2-resident security software of Hypernel.

Implements the paper's sections 5.2, 5.3 and 6.1:

* **Isolated execution environment without nested paging** — Hypersec
  never enables stage-2 translation.  Isolation rests on two invariants
  it enforces instead:

  1. *verified kernel page tables* (5.2.1): the kernel's translation
     tables are read-only to EL1; every update arrives as a hypercall
     that Hypersec validates (no mapping of the secure region, no
     writable mapping of a table page, W xor X) and performs itself;
  2. *trapped privileged instructions* (5.2.2): with ``HCR_EL2.TVM``
     set, EL1 writes of TTBR0/TTBR1/SCTLR/TCR/MAIR trap here and are
     checked against the recorded good configuration.

* **Hardware-assisted monitoring** (5.3): security applications register
  regions; Hypersec translates their kernel VAs to physical addresses,
  sets the MBM's word-granularity bitmap (with uncached stores the MBM
  snoops), makes the containing pages non-cacheable so every write
  reaches the bus, and services the MBM interrupt by draining the ring
  buffer and routing each (address, value) event to its application.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.config import PAGE_BYTES, PAGE_WORDS, SECTION_BYTES, WORD_BYTES
from repro.errors import SecurityViolation, SimulationError
from repro.hw.platform import Platform
from repro.arch.cpu import CPUCore
from repro.arch.exceptions import EL2, EL2Vector
from repro.arch.pagetable import (
    DESC_AP_WRITE,
    DESC_NC,
    DESC_VALID,
    Descriptor,
    LEVEL_SPAN,
)
from repro.arch.registers import HCR_TVM, SCTLR_M
from repro.core import hypercalls as hc
from repro.core.mbm import bitmap as mbm_bitmap
from repro.core.mbm.mbm import MemoryBusMonitor
from repro.utils.bitops import align_down
from repro.utils.events import EventHook
from repro.utils.stats import StatSet


class Hypersec(EL2Vector):
    """The ~1.5 KLoC EL2 module, as a simulation model."""

    def __init__(self, platform: Platform, cpu: CPUCore,
                 mbm: Optional[MemoryBusMonitor] = None):
        self.platform = platform
        self.cpu = cpu
        self.costs = platform.config.costs
        self.mbm = mbm
        self.kernel = None  # set by protect()
        self.stats = StatSet("hypersec")
        self.alerts = EventHook("hypersec_alerts")

        # Policy state (resident in the secure region on real hardware).
        self.table_pages: Set[int] = set()
        self.root_tables: Set[int] = set()
        #: boot-time linear-map tables: immutable after protect() except
        #: for attribute bits (the kernel never legitimately remaps its
        #: direct mapping).
        self.linear_tables: Set[int] = set()
        #: table page -> number of verified table-pointer descriptors
        #: referencing it.  Maintained at the single mediation point
        #: (every descriptor write passes through ``_h_pgtable_write``),
        #: so ``pgtable_free`` can refuse to release a table that is
        #: still reachable from a live tree in O(1).
        self._table_refs: Dict[int, int] = {}
        #: table page -> translation level of the table it holds (1-3).
        #: Unknown (absent) between ``pgtable_alloc`` and the first
        #: parent link; a claimed hypercall level that contradicts the
        #: recorded level is a level-confusion attack (a level-3 "page"
        #: descriptor placed in a level-2 table is a table pointer to
        #: hardware) and is denied.
        self._table_levels: Dict[int, int] = {}
        self.kernel_root = 0
        self.recorded_regs: Dict[str, int] = {}
        self._protected = False

        # Monitoring state.
        self._apps: Dict[int, object] = {}
        self._next_sid = 1
        #: page -> list of (base, end, sid) monitored ranges on it
        self._region_index: Dict[int, List[Tuple[int, int, int]]] = {}
        #: page -> number of registered ranges touching it
        self._monitored_page_refs: Dict[int, int] = {}
        #: sections turned read-only in section mode (granularity gap)
        self.gap_sections: Set[int] = set()

    # ------------------------------------------------------------------
    # Initialization (paper 6.1)
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Boot-time EL2 initialization: page table, stack, vectors."""
        regs = self.cpu.regs
        # Linear EL2 page table (modelled as the identity regime), stack
        # and exception vectors.
        regs.write("TTBR0_EL2", self.platform.secure_base)
        regs.write("SP_EL2", self.platform.secure_limit - WORD_BYTES)
        regs.write("VBAR_EL2", self.platform.secure_base + 0x800)
        self.cpu.install_el2_vector(self)
        self.stats.add("installed")

    def register_app(self, app) -> int:
        """Assign a security-application ID (SID, paper 5.3)."""
        sid = self._next_sid
        self._next_sid += 1
        self._apps[sid] = app
        app.sid = sid
        return sid

    # ------------------------------------------------------------------
    # Kernel protection bring-up
    # ------------------------------------------------------------------
    def protect(self, kernel, verify_boot: bool = True) -> None:
        """Lock down a freshly booted kernel (secure-boot hand-off).

        Records the good VM-register configuration, registers and
        write-protects every existing translation-table page, and
        enables TVM trapping.  Must run before the first runtime
        page-table update.

        With ``verify_boot`` (the default, matching paper 5.2.1's
        "Hypersec verifies the request" discipline applied to the
        initial state), a full invariant audit of the just-locked
        kernel runs and any violation aborts the boot.
        """
        if self._protected:
            raise SimulationError("protect() called twice")
        self.kernel = kernel
        regs = self.cpu.regs
        self.kernel_root = regs.read("TTBR1_EL1")
        for name in ("SCTLR_EL1", "TCR_EL1", "MAIR_EL1"):
            self.recorded_regs[name] = regs.read(name)
        self.linear_tables = set(kernel.linear_map.table_pages)
        for table in sorted(kernel.linear_map.table_pages):
            self._register_table_page(table, is_root=False, verify_empty=False)
        self.table_pages.add(self.kernel_root & ~(PAGE_BYTES - 1))
        self._rebuild_topology()
        regs.set_bits("HCR_EL2", HCR_TVM)
        self._protected = True
        self.stats.add("protected")
        if verify_boot:
            report = self.audit()
            if not report.clean:
                self._alert("boot_verification", findings=len(report.findings))
                raise SecurityViolation(
                    f"boot-time verification failed: {report}", policy="boot"
                )

    # ------------------------------------------------------------------
    # EL2 memory helpers (identity map; charged to the caller's clock)
    # ------------------------------------------------------------------
    def _el2_write(self, paddr: int, value: int, cacheable: bool = True) -> None:
        saved = self.cpu.current_el
        self.cpu.current_el = EL2
        try:
            self.platform.caches.write(paddr, value, cacheable)
        finally:
            self.cpu.current_el = saved

    def _el2_read(self, paddr: int, cacheable: bool = True) -> int:
        saved = self.cpu.current_el
        self.cpu.current_el = EL2
        try:
            return self.platform.caches.read(paddr, cacheable)
        finally:
            self.cpu.current_el = saved

    # ------------------------------------------------------------------
    # EL2Vector: hypercalls
    # ------------------------------------------------------------------
    #: func -> (min_args, max_args).  A hostile caller may pass any
    #: argument vector; a wrong arity is a denied request, never a
    #: Python-level crash inside EL2.
    _HVC_ARITY = {
        hc.HVC_PGTABLE_WRITE: (2, 3),
        hc.HVC_PGTABLE_ALLOC: (1, 2),
        hc.HVC_PGTABLE_FREE: (1, 1),
        hc.HVC_REGISTER_REGION: (3, 3),
        hc.HVC_UNREGISTER_REGION: (3, 3),
        hc.HVC_MBM_SERVICE: (0, 0),
        hc.HVC_EMULATE_WRITE: (2, 2),
        hc.HVC_EMULATE_WRITE_BLOCK: (2, 2),
    }

    def handle_hvc(self, cpu: CPUCore, func: int, args: Sequence[int]) -> int:
        self.stats.add(f"hvc.{hc.NAMES.get(func, func)}")
        bounds = self._HVC_ARITY.get(func)
        if bounds is not None:
            low, high = bounds
            if not (low <= len(args) <= high
                    and all(isinstance(a, int) for a in args)):
                self._alert("hypercall_bad_arity", func=func,
                            nargs=len(args))
                return hc.HVC_DENIED
        if func == hc.HVC_PGTABLE_WRITE:
            return self._h_pgtable_write(*args)
        if func == hc.HVC_PGTABLE_ALLOC:
            return self._h_pgtable_alloc(args[0], bool(args[1]) if len(args) > 1 else False)
        if func == hc.HVC_PGTABLE_FREE:
            return self._h_pgtable_free(args[0])
        if func == hc.HVC_REGISTER_REGION:
            return self._h_register_region(*args)
        if func == hc.HVC_UNREGISTER_REGION:
            return self._h_unregister_region(*args)
        if func == hc.HVC_MBM_SERVICE:
            return self._h_mbm_service()
        if func == hc.HVC_EMULATE_WRITE:
            return self._h_emulate_write(*args)
        if func == hc.HVC_EMULATE_WRITE_BLOCK:
            return self._h_emulate_write_block(*args)
        self._alert("unknown_hypercall", func=func)
        return hc.HVC_DENIED

    def _alert(self, policy: str, **info) -> None:
        self.stats.add(f"alert.{policy}")
        self.alerts.fire(policy, info)

    # ------------------------------------------------------------------
    # Page-table write verification (paper 5.2.1)
    # ------------------------------------------------------------------
    def _h_pgtable_write(self, desc_paddr: int, value: int, level: int = 3) -> int:
        self.cpu.compute(self.costs.hypersec_verify_pte)
        if (level not in LEVEL_SPAN or desc_paddr % WORD_BYTES
                or not 0 <= value < (1 << 64)):
            self._alert("pgtable_bad_args", desc=desc_paddr, level=level)
            return hc.HVC_DENIED
        table_page = align_down(desc_paddr, PAGE_BYTES)
        if table_page not in self.table_pages:
            self._alert("pgtable_target", desc=desc_paddr)
            return hc.HVC_DENIED
        known_level = self._table_levels.get(table_page)
        if known_level is None:
            # Not yet linked into any tree.  A populated orphan table
            # could later be linked at an arbitrary level, re-typing
            # every entry (level confusion), so only inert zero writes
            # are accepted before the first link.
            if value != 0:
                self._alert("unlinked_table_write", desc=desc_paddr)
                return hc.HVC_DENIED
        elif level != known_level:
            self._alert("pgtable_level_mismatch", desc=desc_paddr,
                        claimed=level, actual=known_level)
            return hc.HVC_DENIED
        desc = Descriptor(value)
        # Backdoor read of the current descriptor; the architectural
        # cost is charged inside the verdict helpers at the same points
        # as always (the table-pointer path folds it into the flat
        # verify cost).
        old = Descriptor(self.platform.bus.peek(desc_paddr))
        if desc.valid:
            if level < 3 and desc.is_table:
                # Next-level pointer: must reference a registered table
                # whose level agrees with its new parent.
                if desc.address not in self.table_pages:
                    self._alert("unregistered_table", target=desc.address)
                    return hc.HVC_DENIED
                child_level = self._table_levels.get(desc.address)
                if child_level is not None and child_level != level + 1:
                    self._alert("table_level_conflict",
                                target=desc.address,
                                have=child_level, want=level + 1)
                    return hc.HVC_DENIED
                verdict = self._check_old_mapping(desc_paddr, old, desc,
                                                  level)
                if verdict != hc.HVC_OK:
                    return verdict
            else:
                verdict = self._check_leaf(desc_paddr, desc, level, old)
                if verdict != hc.HVC_OK:
                    return verdict
        else:
            verdict = self._check_unmap(desc_paddr, level, old)
            if verdict != hc.HVC_OK:
                return verdict
        # Maintain the table-pointer refcounts and level map at the
        # mediation point (this is what keeps pgtable_free O(1)).
        old_is_table = level < 3 and old.valid and old.is_table
        new_is_table = level < 3 and desc.valid and desc.is_table
        if old_is_table:
            refs = self._table_refs.get(old.address, 0) - 1
            if refs > 0:
                self._table_refs[old.address] = refs
            else:
                self._table_refs.pop(old.address, None)
        if new_is_table:
            self._table_refs[desc.address] = (
                self._table_refs.get(desc.address, 0) + 1
            )
            self._table_levels.setdefault(desc.address, level + 1)
        self._el2_write(desc_paddr, value)
        return hc.HVC_OK

    def _check_leaf(self, desc_paddr: int, desc: Descriptor, level: int,
                    old: Descriptor) -> int:
        span = LEVEL_SPAN[level]
        target_base = desc.address
        target_end = target_base + span
        # 1. Never map the secure space (paper 5.2.1).
        if (target_base < self.platform.secure_limit
                and target_end > self.platform.secure_base):
            self._alert("secure_mapping", target=target_base)
            return hc.HVC_DENIED
        # 2. Never map a table page writable (read-only page tables).
        #    Iterate whichever side is smaller: a level-1 block spans
        #    a gigabyte (250k pages) while table_pages stays small.
        if desc.writable:
            if span // PAGE_BYTES > len(self.table_pages):
                hit = next((p for p in self.table_pages
                            if target_base <= p < target_end), None)
            else:
                hit = next((p for p in range(target_base, target_end,
                                             PAGE_BYTES)
                            if p in self.table_pages), None)
            if hit is not None:
                self._alert("writable_table_mapping", target=hit)
                return hc.HVC_DENIED
        # 3. W xor X on kernel mappings (paper 5.2.1).
        if desc.writable and desc.executable and not desc.user:
            self._alert("w_xor_x", target=target_base)
            return hc.HVC_DENIED
        self.cpu.compute(self.costs.l1_hit)  # the old-descriptor read
        # 4+5. ATRA / linear-map redirect defence on the old mapping.
        return self._check_old_mapping(desc_paddr, old, desc, level)

    def _check_unmap(self, desc_paddr: int, level: int,
                     old: Descriptor) -> int:
        self.cpu.compute(self.costs.l1_hit)
        return self._check_old_mapping(desc_paddr, old, None, level)

    def _check_old_mapping(self, desc_paddr: int, old: Descriptor,
                           new_desc: Optional[Descriptor],
                           level: int) -> int:
        """ATRA/linear-map defence (paper 5.3): whatever physical memory
        the *old* descriptor made reachable — a page, a full block span,
        or an entire subtree behind a table pointer — may not silently
        lose or change its translation while any of it is monitored, and
        never changes at all inside the boot-time linear map.
        """
        if not old.valid:
            return hc.HVC_OK
        old_is_table = level < 3 and old.is_table
        new_is_table = (new_desc is not None and new_desc.valid
                        and level < 3 and new_desc.is_table)
        if (new_desc is not None and new_desc.valid
                and old_is_table == new_is_table
                and old.address == new_desc.address):
            return hc.HVC_OK  # attribute-only rewrite, same translation
        new_base = None if new_desc is None else new_desc.address
        for base, nbytes in self._old_mapping_spans(old, level):
            if self._span_hits_monitored(base, nbytes):
                if new_desc is None or not new_desc.valid:
                    self._alert("monitored_unmap", target=base)
                else:
                    self._alert("atra_remap", old=base, new=new_base)
                return hc.HVC_DENIED
        # The linear map is immutable after boot: attribute changes are
        # fine, address redirects (including unmaps) never are.
        if align_down(desc_paddr, PAGE_BYTES) in self.linear_tables:
            self._alert("linear_remap", old=old.address, new=new_base)
            return hc.HVC_DENIED
        return hc.HVC_OK

    def _old_mapping_spans(self, old: Descriptor, level: int):
        """Yield ``(base_paddr, nbytes)`` spans the old descriptor
        translated.  For a table pointer this walks the (verified)
        subtree with backdoor reads; descent is gated on membership in
        ``table_pages`` so a corrupted pointer cannot crash EL2."""
        if level >= 3 or not old.is_table:
            yield old.address, LEVEL_SPAN[level]
            return
        stack = [(old.address, level + 1)]
        seen: Set[int] = set()
        while stack:
            table, tlevel = stack.pop()
            if table in seen or table not in self.table_pages:
                continue
            seen.add(table)
            for raw in self.platform.bus.peek_words(table, PAGE_WORDS):
                if not raw & DESC_VALID:
                    continue
                entry = Descriptor(raw)
                if tlevel < 3 and entry.is_table:
                    stack.append((entry.address, tlevel + 1))
                else:
                    yield entry.address, LEVEL_SPAN[tlevel]

    def _span_hits_monitored(self, base: int, nbytes: int) -> bool:
        end = base + nbytes
        if nbytes // PAGE_BYTES > len(self._monitored_page_refs):
            return any(base <= page < end
                       for page in self._monitored_page_refs)
        return any(self._monitored_page_refs.get(page)
                   for page in range(base, end, PAGE_BYTES))

    # ------------------------------------------------------------------
    # Table-page lifecycle (paper 6.2: read-only page tables)
    # ------------------------------------------------------------------
    def _h_pgtable_alloc(self, table_paddr: int, is_root: bool) -> int:
        if table_paddr & (PAGE_BYTES - 1):
            self._alert("pgtable_alloc_misaligned", target=table_paddr)
            return hc.HVC_DENIED
        if not (self.platform.memory.contains(table_paddr)
                and self.platform.memory.contains(
                    table_paddr + PAGE_BYTES - WORD_BYTES)):
            self._alert("pgtable_alloc_unbacked", target=table_paddr)
            return hc.HVC_DENIED
        if self.platform.in_secure_region(table_paddr):
            self._alert("pgtable_alloc_secure", target=table_paddr)
            return hc.HVC_DENIED
        if table_paddr in self.table_pages:
            self._alert("pgtable_alloc_duplicate", target=table_paddr)
            return hc.HVC_DENIED
        # Verify the kernel really zeroed it (no smuggled mappings).
        if any(self.platform.bus.peek_words(table_paddr, PAGE_WORDS)):
            self._alert("pgtable_alloc_dirty", target=table_paddr)
            return hc.HVC_DENIED
        self.cpu.compute(self.costs.l2_hit * (PAGE_WORDS // 8))  # scan cost
        self._register_table_page(table_paddr, is_root, verify_empty=False)
        return hc.HVC_OK

    def _register_table_page(self, table_paddr: int, is_root: bool,
                             verify_empty: bool) -> None:
        self.table_pages.add(table_paddr)
        if is_root:
            self.root_tables.add(table_paddr)
            self._table_levels[table_paddr] = 1
        self._set_linear_writable(table_paddr, writable=False)

    def _h_pgtable_free(self, table_paddr: int) -> int:
        if table_paddr not in self.table_pages:
            self._alert("pgtable_free_unknown", target=table_paddr)
            return hc.HVC_DENIED
        # The boot topology is permanent: the kernel root and the
        # linear-map tables never retire.
        if (table_paddr == align_down(self.kernel_root, PAGE_BYTES)
                or table_paddr in self.linear_tables):
            self._alert("pgtable_free_protected", target=table_paddr)
            return hc.HVC_DENIED
        # Still referenced by a verified table pointer somewhere: the
        # frame would go back to the allocator while a live walk can
        # still reach it (and its linear-map leaf turns writable again).
        if self._table_refs.get(table_paddr):
            self._alert("pgtable_free_referenced", target=table_paddr)
            return hc.HVC_DENIED
        # A translation base register may still point at it.
        regs = self.cpu.regs
        for reg in ("TTBR0_EL1", "TTBR1_EL1"):
            if align_down(regs.read(reg), PAGE_BYTES) == table_paddr:
                self._alert("pgtable_free_active_root", target=table_paddr)
                return hc.HVC_DENIED
        # Every slot must be invalidated before the page retires:
        # freeing a populated table would leave its children's reference
        # counts stale and any linked subtree registered but forever
        # unreachable.  (Backdoor scan, uncharged like the other new
        # verdict reads; the kernel teardown path zeroes slots anyway.)
        if any(self.platform.bus.peek_words(table_paddr, PAGE_WORDS)):
            self._alert("pgtable_free_nonempty", target=table_paddr)
            return hc.HVC_DENIED
        self.table_pages.discard(table_paddr)
        self.root_tables.discard(table_paddr)
        self._table_levels.pop(table_paddr, None)
        self._table_refs.pop(table_paddr, None)
        self._set_linear_writable(table_paddr, writable=True)
        return hc.HVC_OK

    def _rebuild_topology(self) -> None:
        """Re-derive the table-pointer refcounts and per-table levels by
        walking the verified trees with backdoor reads (boot lock-down;
        runtime keeps them incremental)."""
        refs: Dict[int, int] = {}
        levels: Dict[int, int] = {}
        roots = {align_down(self.kernel_root, PAGE_BYTES)} | self.root_tables
        stack = [r for r in sorted(roots) if r in self.table_pages]
        for root in stack:
            levels[root] = 1
        seen: Set[int] = set()
        work = [(r, 1) for r in stack]
        while work:
            table, level = work.pop()
            if table in seen:
                continue
            seen.add(table)
            levels.setdefault(table, level)
            if level >= 3:
                continue  # entries below are leaves, not pointers
            for raw in self.platform.bus.peek_words(table, PAGE_WORDS):
                entry = Descriptor(raw)
                if (entry.valid and entry.is_table
                        and entry.address in self.table_pages):
                    refs[entry.address] = refs.get(entry.address, 0) + 1
                    work.append((entry.address, level + 1))
        self._table_refs = refs
        self._table_levels = levels

    def _set_linear_writable(self, page_paddr: int, writable: bool) -> None:
        """Flip write permission of the linear-map leaf covering a page.

        In page mode this is exact.  In section mode the whole 2 MB
        block changes — the protection-granularity gap of paper 6.2:
        unrelated kernel data in the section becomes read-only too, and
        its writes start faulting into :meth:`_h_emulate_write`.
        """
        if self.kernel is None:
            raise SimulationError("protect() must run before table ops")
        desc_addr, level = self.kernel.linear_map.leaf_desc_addr(page_paddr)
        raw = self.platform.bus.peek(desc_addr)
        if writable:
            if level == 2:
                section = align_down(page_paddr, SECTION_BYTES)
                # Only restore when no other table page shares the block.
                if any(align_down(t, SECTION_BYTES) == section
                       for t in self.table_pages):
                    return
                self.gap_sections.discard(section)
            new = raw | DESC_AP_WRITE
        else:
            if level == 2:
                self.gap_sections.add(align_down(page_paddr, SECTION_BYTES))
            new = raw & ~DESC_AP_WRITE
        self._el2_write(desc_addr, new)
        if level == 2:
            # The block leaf covers 2 MB: stale entries for *any* page
            # of the section must go (the TLB is page-granular here).
            self.cpu.tlbi_all()
        else:
            self.cpu.tlbi_va(self.kernel.linear_map.kva(page_paddr))

    # ------------------------------------------------------------------
    # Granularity-gap write emulation (section mode only)
    # ------------------------------------------------------------------
    def _h_emulate_write(self, dest_paddr: int, value: int) -> int:
        self.cpu.compute(self.costs.hypersec_verify_pte)
        if (dest_paddr % WORD_BYTES
                or not self.platform.memory.contains(dest_paddr)
                or not 0 <= value < (1 << 64)):
            self._alert("emulate_bad_target", target=dest_paddr)
            return hc.HVC_DENIED
        if self.platform.in_secure_region(dest_paddr):
            self._alert("emulate_secure", target=dest_paddr)
            return hc.HVC_DENIED
        if align_down(dest_paddr, PAGE_BYTES) in self.table_pages:
            self._alert("emulate_table_write", target=dest_paddr)
            return hc.HVC_DENIED
        self.stats.add("gap_emulated_writes")
        self._el2_write(dest_paddr, value)
        return hc.HVC_OK

    def _h_emulate_write_block(self, dest_paddr: int, nwords: int) -> int:
        """Bulk write emulation for page-sized fills that gap-faulted.

        One simulated call stands in for ``nwords`` individual faults;
        the kernel side charges the per-word trap costs, this side
        charges the per-word verification and store work.
        """
        from repro.config import PAGE_BYTES as _PAGE
        if (nwords <= 0 or dest_paddr % WORD_BYTES
                or not self.platform.memory.contains(dest_paddr)
                or not self.platform.memory.contains(
                    dest_paddr + nwords * WORD_BYTES - WORD_BYTES)):
            self._alert("emulate_bad_target", target=dest_paddr,
                        nwords=nwords)
            return hc.HVC_DENIED
        first_page = align_down(dest_paddr, _PAGE)
        last_page = align_down(dest_paddr + nwords * WORD_BYTES - 1, _PAGE)
        for page in range(first_page, last_page + _PAGE, _PAGE):
            if self.platform.in_secure_region(page):
                self._alert("emulate_secure", target=page)
                return hc.HVC_DENIED
            if page in self.table_pages:
                self._alert("emulate_table_write", target=page)
                return hc.HVC_DENIED
        self.cpu.compute(nwords * self.costs.hypersec_verify_pte // 8)
        saved = self.cpu.current_el
        self.cpu.current_el = EL2
        try:
            self.platform.caches.touch_block(dest_paddr, nwords, is_write=True)
        finally:
            self.cpu.current_el = saved
        self.stats.add("gap_emulated_writes", nwords)
        return hc.HVC_OK

    # ------------------------------------------------------------------
    # Trapped VM-control registers (paper 5.2.2)
    # ------------------------------------------------------------------
    def handle_trapped_msr(self, cpu: CPUCore, register: str, value: int) -> None:
        cpu.compute(self.costs.hypersec_verify_reg)
        self.stats.add(f"trap.{register}")
        if register == "TTBR1_EL1":
            if value != self.kernel_root:
                self._alert("rogue_ttbr1", value=value)
                raise SecurityViolation(
                    f"attempt to switch TTBR1_EL1 to {value:#x}",
                    policy="ttbr",
                )
        elif register == "TTBR0_EL1":
            # Zero parks user translation (pre-init, or a task tearing
            # down its own address space before the root is freed).
            if value != 0 and (value & ~(PAGE_BYTES - 1)) not in self.root_tables:
                self._alert("rogue_ttbr0", value=value)
                raise SecurityViolation(
                    f"attempt to switch TTBR0_EL1 to unregistered root "
                    f"{value:#x}",
                    policy="ttbr",
                )
        elif register == "SCTLR_EL1":
            if self._protected and not value & SCTLR_M:
                self._alert("mmu_disable", value=value)
                raise SecurityViolation(
                    "attempt to disable the stage-1 MMU", policy="sctlr"
                )
        else:  # TCR_EL1 / MAIR_EL1: configuration must not change.
            if self._protected and value != self.recorded_regs.get(register, value):
                self._alert("vm_config_change", register=register)
                raise SecurityViolation(
                    f"attempt to retune {register}", policy="vmcfg"
                )
        cpu.regs.write(register, value)

    # ------------------------------------------------------------------
    # Region registration (paper 5.3, Figure 4 green path)
    # ------------------------------------------------------------------
    def _h_register_region(self, sid: int, base_kva: int, size: int) -> int:
        if sid not in self._apps:
            self._alert("unknown_sid", sid=sid)
            return hc.HVC_DENIED
        if self.mbm is None:
            self._alert("no_mbm", sid=sid)
            return hc.HVC_DENIED
        self.cpu.compute(self.costs.hypersec_register_region)
        base_pa = self.kernel.linear_map.pa(base_kva)
        # The range must lie entirely under bitmap coverage
        # ([dram_base, secure_base)); anything else would compute bitmap
        # word addresses outside the bitmap itself — stray stores into
        # the secure region.
        if (size <= 0 or not self.mbm.bitmap.covers(base_pa)
                or not self.mbm.bitmap.covers(base_pa + size - 1)):
            self._alert("register_bounds", base=base_pa, size=size)
            return hc.HVC_DENIED
        if (self.platform.in_secure_region(base_pa)
                or self.platform.in_secure_region(base_pa + size - 1)):
            self._alert("register_secure", base=base_pa)
            return hc.HVC_DENIED
        end_pa = base_pa + size
        # Refuse duplicate registration of an identical (base, end, sid)
        # triple: unregistering one copy would clear the bitmap bits the
        # surviving copy still relies on.  Registration is atomic over
        # the covered pages, so checking the first page suffices.
        first_page = self.mbm.bitmap.pages_for_range(base_pa, size)[0]
        if (base_pa, end_pa, sid) in self._region_index.get(first_page, []):
            self._alert("register_duplicate", base=base_pa, sid=sid)
            return hc.HVC_DENIED
        # Enable the bitmap bits (uncached stores the MBM snoops).
        for word_addr, mask in self.mbm.bitmap.words_for_range(base_pa, size):
            current = self._el2_read(word_addr, cacheable=False)
            self._el2_write(word_addr, current | mask, cacheable=False)
        # Index the range and make its pages non-cacheable.
        for page in self.mbm.bitmap.pages_for_range(base_pa, size):
            self._region_index.setdefault(page, []).append((base_pa, end_pa, sid))
            refs = self._monitored_page_refs.get(page, 0)
            self._monitored_page_refs[page] = refs + 1
            if refs == 0:
                self._set_page_cacheability(page, cacheable=False)
        self.stats.add("regions_registered")
        return hc.HVC_OK

    def _h_unregister_region(self, sid: int, base_kva: int, size: int) -> int:
        if sid not in self._apps or self.mbm is None:
            return hc.HVC_DENIED
        self.cpu.compute(self.costs.hypersec_register_region)
        base_pa = self.kernel.linear_map.pa(base_kva)
        if (size <= 0 or not self.mbm.bitmap.covers(base_pa)
                or not self.mbm.bitmap.covers(base_pa + size - 1)):
            self._alert("register_bounds", base=base_pa, size=size)
            return hc.HVC_DENIED
        end_pa = base_pa + size
        # The triple must have been registered exactly as claimed on
        # every covered page: clearing bitmap bits or dropping page
        # references for a range that was never registered would destroy
        # another region's monitoring (the bits and refcounts are shared
        # state, keyed only by address).
        pages = self.mbm.bitmap.pages_for_range(base_pa, size)
        if not all((base_pa, end_pa, sid) in self._region_index.get(page, [])
                   for page in pages):
            self._alert("unregister_unknown", base=base_pa, size=size,
                        sid=sid)
            return hc.HVC_DENIED
        for page in pages:
            ranges = self._region_index.get(page, [])
            ranges.remove((base_pa, end_pa, sid))
        # The bitmap words are shared state: another registered region
        # may overlap the very same bits, so clear only what no
        # surviving region still needs.
        for word_addr, mask in self.mbm.bitmap.words_for_range(base_pa, size):
            keep = self._surviving_mask(word_addr) & mask
            current = self._el2_read(word_addr, cacheable=False)
            self._el2_write(word_addr, (current & ~mask) | keep,
                            cacheable=False)
        for page in pages:
            refs = self._monitored_page_refs.get(page, 1) - 1
            if refs <= 0:
                self._monitored_page_refs.pop(page, None)
                self._set_page_cacheability(page, cacheable=True)
            else:
                self._monitored_page_refs[page] = refs
        self.stats.add("regions_unregistered")
        return hc.HVC_OK

    def _surviving_mask(self, word_addr: int) -> int:
        """Bits of one bitmap word that registered regions still claim.

        One bitmap word covers 64 consecutive monitored words (512
        bytes), always inside a single 4 KB page, so the page's range
        list enumerates every region that can own a bit here.
        """
        bitmap = self.mbm.bitmap
        span_bytes = WORD_BYTES * mbm_bitmap.WORDS_PER_BITMAP_WORD
        span_base = (bitmap.covered_base
                     + (word_addr - bitmap.bitmap_base) // WORD_BYTES
                     * span_bytes)
        keep = 0
        for base, end, _sid in self._region_index.get(
                align_down(span_base, PAGE_BYTES), []):
            low, high = max(base, span_base), min(end, span_base + span_bytes)
            if low >= high:
                continue
            first = (low - bitmap.covered_base) // WORD_BYTES
            last = (high - 1 - bitmap.covered_base) // WORD_BYTES
            for word_index in range(first, last + 1):
                keep |= 1 << (word_index % mbm_bitmap.WORDS_PER_BITMAP_WORD)
        return keep

    def _set_page_cacheability(self, page_paddr: int, cacheable: bool) -> None:
        """Retune the linear-map attribute so MBM sees (or stops seeing)
        every write: paper 5.3, "any cache entry for the page including
        the monitored region is not generated"."""
        desc_addr, level = self.kernel.linear_map.leaf_desc_addr(page_paddr)
        if cacheable and level == 2:
            # Granularity gap, same shape as ``_set_linear_writable``:
            # the 2 MB block leaf is shared, so only restore it
            # cacheable when no other monitored page lives under it.
            section = align_down(page_paddr, SECTION_BYTES)
            if any(align_down(page, SECTION_BYTES) == section
                   for page in self._monitored_page_refs):
                return
        raw = self.platform.bus.peek(desc_addr)
        new = (raw & ~DESC_NC) if cacheable else (raw | DESC_NC)
        self._el2_write(desc_addr, new)
        if not cacheable:
            # Flush any dirty lines so no stale writeback bypasses the
            # MBM.  The bitmap bits are already armed, so the flushed
            # lines cover monitored words by construction: bracket the
            # flush so the MBM books them as the mitigation working
            # (flushed_writebacks), not as missed-event hazards.
            flush = (
                self.mbm.expected_flush()
                if self.mbm is not None
                else nullcontext()
            )
            span = SECTION_BYTES if level == 2 else PAGE_BYTES
            with flush:
                self.platform.caches.clean_invalidate_range(
                    align_down(page_paddr, span), span)
        if level == 2:
            self.cpu.tlbi_all()
        else:
            self.cpu.tlbi_va(self.kernel.linear_map.kva(page_paddr))

    # ------------------------------------------------------------------
    # MBM interrupt service (paper 5.3, Figure 4 red path)
    # ------------------------------------------------------------------
    def _h_mbm_service(self) -> int:
        if self.mbm is None:
            return hc.HVC_DENIED
        events = self.mbm.ring.consume_all(
            reader=lambda paddr: self._el2_read(paddr, cacheable=False),
            writer=lambda paddr, value: self._el2_write(
                paddr, value, cacheable=False
            ),
        )
        for addr, value in events:
            self.cpu.compute(self.costs.hypersec_irq_dispatch)
            self._dispatch_event(addr, value)
        self.stats.add("mbm_events_dispatched", len(events))
        return hc.HVC_OK

    def _dispatch_event(self, addr: int, value: int) -> None:
        page = align_down(addr, PAGE_BYTES)
        matched = False
        for base, end, sid in self._region_index.get(page, []):
            if base <= addr < end:
                matched = True
                self._apps[sid].on_event(addr, value)
        if not matched:
            self.stats.add("orphan_events")

    # ------------------------------------------------------------------
    # Runtime verification (Discussion section: verifiable TCB)
    # ------------------------------------------------------------------
    def audit(self):
        """Check every Hypernel security invariant against live machine
        state (real table walks, real bitmap contents).  Returns an
        :class:`~repro.core.audit.AuditReport`."""
        from repro.core.audit import HypersecAuditor
        return HypersecAuditor(self).audit()

    # ------------------------------------------------------------------
    # Introspection used by tests and the analysis layer
    # ------------------------------------------------------------------
    def monitored_word_count(self) -> int:
        """Registered monitored bytes / 8 (from the live region index)."""
        total = 0
        seen = set()
        for ranges in self._region_index.values():
            for base, end, sid in ranges:
                if (base, end, sid) not in seen:
                    seen.add((base, end, sid))
                    total += (end - base) // WORD_BYTES
        return total
