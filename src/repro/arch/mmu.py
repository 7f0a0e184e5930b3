"""MMU: TLBs and one- or two-stage translation-table walks.

This module carries the paper's central performance argument:

* Without nested paging (Native, Hypernel) a TLB miss costs one
  **3-descriptor** stage-1 walk.
* With nested paging (KVM baseline) every stage-1 descriptor fetch is
  itself an IPA that must be translated by stage 2, and the final output
  IPA must be translated too — a cold nested walk touches up to
  ``3*3 + 3 + 3 = 15`` descriptors.  A stage-2 TLB (walk cache) absorbs
  most of that in steady state, but the residual cost is exactly the
  overhead Hypernel eliminates (paper sections 1 and 5.2).

Page tables are *real* data structures in simulated physical memory;
walks read descriptors through the cache hierarchy, so walk locality and
cache pressure behave mechanistically.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import CostModel, PAGE_BYTES
from repro.errors import PermissionFault, Stage2Fault, TranslationFault
from repro.hw.cache import CacheHierarchy
from repro.arch.pagetable import (
    DESC_AP_WRITE,
    DESC_COW,
    DESC_NC,
    DESC_TABLE,
    DESC_USER,
    DESC_VALID,
    DESC_XN,
    LEVEL_SPAN,
    index_for_level,
    split_vaddr,
)
from repro.arch.pagetable import _ADDR_MASK as DESC_ADDR_MASK
from repro.arch.registers import SystemRegisters
from repro.utils.bitops import align_down
from repro.utils.stats import StatSet

#: ASID value used for global (kernel) mappings in TLB keys.
GLOBAL_ASID = -1


class TranslationResult:
    """Outcome of a successful translation for one 4 KB page.

    A plain slotted class rather than a (frozen) dataclass: one instance
    is built per simulated memory access, and direct attribute stores
    construct several times faster than ``object.__setattr__``.
    """

    __slots__ = ("paddr", "page_paddr", "writable", "user", "cacheable",
                 "cow", "executable", "level")

    def __init__(self, paddr: int, page_paddr: int, writable: bool,
                 user: bool, cacheable: bool, cow: bool, executable: bool,
                 level: int):
        self.paddr = paddr            #: physical address of the location
        self.page_paddr = page_paddr  #: physical base of the 4 KB frame
        self.writable = writable
        self.user = user
        self.cacheable = cacheable
        self.cow = cow
        self.executable = executable
        self.level = level            #: leaf level (2 = 2 MB block, 3 = page)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TranslationResult(paddr={self.paddr:#x}, "
                f"page_paddr={self.page_paddr:#x}, level={self.level})")


@dataclass(frozen=True)
class _TlbEntry:
    page_paddr: int
    writable: bool
    user: bool
    cacheable: bool
    cow: bool
    executable: bool
    level: int


class TLB:
    """A finite translation cache with FIFO replacement.

    Hit/miss accounting is batched: ``lookup`` bumps plain integers and
    the :class:`StatSet` folds them in lazily (via its ``flush_hook``)
    whenever the stats are read, so the per-lookup cost stays minimal.
    ``epoch`` increments on every mutation (insert or invalidate); the
    MMU's one-entry fast path uses it to know its cached translation is
    still current.
    """

    def __init__(self, name: str, entries: int):
        if entries <= 0:
            raise ValueError(f"TLB must have a positive capacity, got {entries}")
        self.capacity = entries
        self._entries: "OrderedDict[Tuple, _TlbEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self.epoch = 0
        self.stats = StatSet(name)
        self.stats.flush_hook = self._flush_pending

    def _flush_pending(self) -> None:
        if self._hits:
            hits, self._hits = self._hits, 0
            self.stats.add("hits", hits)
        if self._misses:
            misses, self._misses = self._misses, 0
            self.stats.add("misses", misses)

    def lookup(self, key: Tuple) -> Optional[_TlbEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
        else:
            self._hits += 1
        return entry

    def insert(self, key: Tuple, entry: _TlbEntry) -> None:
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.add("evictions")
        self._entries[key] = entry
        self.epoch += 1

    def invalidate_all(self) -> None:
        self.stats.add("invalidate_all")
        self._entries.clear()
        self.epoch += 1

    def invalidate_matching(self, predicate) -> int:
        """Drop all entries whose key satisfies ``predicate``; returns count."""
        entries = self._entries
        kept = OrderedDict(
            (key, entry) for key, entry in entries.items() if not predicate(key)
        )
        dropped = len(entries) - len(kept)
        if dropped:
            self._entries = kept
            self.epoch += 1
        return dropped

    def __len__(self) -> int:
        return len(self._entries)


class MMU:
    """Address translation for one CPU core."""

    def __init__(
        self,
        caches: CacheHierarchy,
        regs: SystemRegisters,
        costs: CostModel,
        tlb_entries: int = 512,
        stage2_tlb_entries: int = 512,
    ):
        self.caches = caches
        self.regs = regs
        self.costs = costs
        self.tlb = TLB("tlb", tlb_entries)
        self.stage2_tlb = TLB("stage2_tlb", stage2_tlb_entries)
        self.asid = 0   #: current address-space ID (user mappings)
        self.vmid = 0   #: VM ID (tags stage-2 entries)
        self.stats = StatSet("mmu")
        # One-entry translation caches in front of the TLB dicts.  Each
        # remembers the last (page, context) resolved and is implicitly
        # invalidated by the owning TLB's epoch moving (any insert or
        # invalidate).  A fast-path hit is still accounted as a TLB hit,
        # so statistics are identical to the dict-probe path.
        self._fast_vpage = -1
        self._fast_asid = -1
        self._fast_vmid = -1
        self._fast_epoch = -1
        self._fast_entry: Optional[_TlbEntry] = None
        self._s2_fast_ipage = -1
        self._s2_fast_vmid = -1
        self._s2_fast_epoch = -1
        self._s2_fast_entry: Optional[_TlbEntry] = None

    # ------------------------------------------------------------------
    # TLB maintenance ("TLBI" instructions)
    # ------------------------------------------------------------------
    def invalidate_all(self) -> None:
        """TLBI VMALLE1-style: drop all stage-1 entries."""
        self.tlb.invalidate_all()

    def invalidate_asid(self, asid: int) -> None:
        """Drop all entries for one ASID."""
        self.tlb.invalidate_matching(lambda key: key[1] == asid)

    def invalidate_va(self, vaddr: int) -> None:
        """Drop entries (any ASID) for the page containing ``vaddr``."""
        vpage = vaddr >> 12
        self.tlb.invalidate_matching(lambda key: key[2] == vpage)

    def invalidate_stage2(self) -> None:
        """Drop all stage-2 entries (after stage-2 table edits)."""
        self.stage2_tlb.invalidate_all()

    # ------------------------------------------------------------------
    # Stage-2 (IPA -> PA)
    # ------------------------------------------------------------------
    def stage2_translate(self, ipa: int, is_write: bool) -> int:
        """Translate an IPA to a PA, or return it unchanged when stage 2
        is off.  Raises :class:`Stage2Fault` on a miss or write to a
        read-only stage-2 mapping."""
        if not self.regs._stage2_enabled:
            return ipa
        ipage = ipa >> 12
        stage2_tlb = self.stage2_tlb
        if (
            ipage == self._s2_fast_ipage
            and self.vmid == self._s2_fast_vmid
            and stage2_tlb.epoch == self._s2_fast_epoch
        ):
            entry = self._s2_fast_entry
            stage2_tlb._hits += 1
        else:
            key = (self.vmid, ipage)
            entry = stage2_tlb.lookup(key)
            if entry is None:
                entry = self._walk_stage2(ipa)
                stage2_tlb.insert(key, entry)
            self._s2_fast_ipage = ipage
            self._s2_fast_vmid = self.vmid
            self._s2_fast_epoch = stage2_tlb.epoch
            self._s2_fast_entry = entry
        if is_write and not entry.writable:
            raise Stage2Fault(
                f"stage-2 write permission fault at IPA {ipa:#x}", ipa, True
            )
        return entry.page_paddr | (ipa & (PAGE_BYTES - 1))

    def _walk_stage2(self, ipa: int) -> _TlbEntry:
        root = self.regs.read("VTTBR_EL2") & ~(PAGE_BYTES - 1)
        if root == 0:
            raise Stage2Fault(f"stage-2 root not set for IPA {ipa:#x}", ipa, False)
        self.stats.add("stage2_walks")
        table = root
        # Descriptor-fetch overhead and counters are accumulated across
        # the (<= 3) levels and folded in once — same totals as the
        # per-level charges, one clock/StatSet update per walk.
        fetched = 0
        try:
            for level in (1, 2, 3):
                desc_addr = table + index_for_level(ipa, level) * 8
                raw = self.caches.read(desc_addr, cacheable=True)
                fetched += 1
                # Decode with direct bit tests (the walk is too hot for a
                # Descriptor object per level; bits per pagetable.py).
                if not raw & DESC_VALID:
                    raise Stage2Fault(
                        f"stage-2 translation fault at IPA {ipa:#x} (level {level})",
                        ipa,
                        False,
                    )
                if level < 3 and raw & DESC_TABLE:
                    table = raw & DESC_ADDR_MASK
                    continue
                # Leaf (block at level 2 or page at level 3).
                span = LEVEL_SPAN[level]
                base = (raw & DESC_ADDR_MASK) + (
                    align_down(ipa, PAGE_BYTES) - align_down(ipa, span)
                )
                return _TlbEntry(
                    page_paddr=base,
                    writable=bool(raw & DESC_AP_WRITE),
                    user=False,
                    cacheable=not raw & DESC_NC,
                    cow=False,
                    executable=not raw & DESC_XN,
                    level=level,
                )
        finally:
            if fetched:
                self.caches.bus.clock.advance(self.costs.walk_step_overhead * fetched)
                self.stats.add("stage2_desc_fetches", fetched)
        raise AssertionError("unreachable: stage-2 walk fell through")

    # ------------------------------------------------------------------
    # Full translation
    # ------------------------------------------------------------------
    def translate(
        self,
        vaddr: int,
        is_write: bool = False,
        el: int = 1,
        is_exec: bool = False,
    ) -> TranslationResult:
        """Translate ``vaddr`` for an access from exception level ``el``.

        EL2 uses Hypersec's linear EL2 map (VA == PA, paper section 6.1),
        modelled as an identity regime whose own TLB never misses.
        """
        if el >= 2:
            return TranslationResult(
                paddr=vaddr,
                page_paddr=align_down(vaddr, PAGE_BYTES),
                writable=True,
                user=False,
                cacheable=True,
                cow=False,
                executable=True,
                level=3,
            )
        if not self.regs._mmu_enabled:
            # Early boot: flat physical addressing.
            return TranslationResult(
                paddr=vaddr,
                page_paddr=align_down(vaddr, PAGE_BYTES),
                writable=True,
                user=False,
                cacheable=True,
                cow=False,
                executable=True,
                level=3,
            )

        vpage = vaddr >> 12
        tlb = self.tlb
        if (
            vpage == self._fast_vpage
            and self.asid == self._fast_asid
            and self.vmid == self._fast_vmid
            and tlb.epoch == self._fast_epoch
        ):
            # Same page, same translation context, TLB untouched since:
            # the dict probe would return the identical entry, so skip
            # the split/key-build/probe and count the hit directly.
            entry = self._fast_entry
            tlb._hits += 1
        else:
            space, offset = split_vaddr(vaddr)
            asid = self.asid if space == "user" else GLOBAL_ASID
            key = (self.vmid, asid, vpage)
            entry = tlb.lookup(key)
            if entry is None:
                entry = self._walk_stage1(vaddr, space, offset, is_write)
                tlb.insert(key, entry)
            self._fast_vpage = vpage
            self._fast_asid = self.asid
            self._fast_vmid = self.vmid
            self._fast_epoch = tlb.epoch
            self._fast_entry = entry
        self._check_permissions(entry, vaddr, is_write, el, is_exec)
        if self.regs._stage2_enabled:
            # The cached stage-1 result holds an IPA page; combine with
            # stage 2 (its own TLB makes the common case cheap).
            pa_page = align_down(
                self.stage2_translate(entry.page_paddr, is_write), PAGE_BYTES
            )
        else:
            pa_page = entry.page_paddr
        low_bits = vaddr & (PAGE_BYTES - 1)
        return TranslationResult(
            paddr=pa_page | low_bits,
            page_paddr=pa_page,
            writable=entry.writable,
            user=entry.user,
            cacheable=entry.cacheable,
            cow=entry.cow,
            executable=entry.executable,
            level=entry.level,
        )

    def _walk_stage1(
        self, vaddr: int, space: str, offset: int, is_write: bool
    ) -> _TlbEntry:
        root_reg = "TTBR0_EL1" if space == "user" else "TTBR1_EL1"
        root = self.regs.read(root_reg) & ~(PAGE_BYTES - 1)
        if root == 0:
            raise TranslationFault(
                f"{root_reg} not set; cannot translate {vaddr:#x}", vaddr=vaddr
            )
        self.stats.add("stage1_walks")
        table_ipa = root
        fetched = 0
        try:
            for level in (1, 2, 3):
                desc_ipa = table_ipa + index_for_level(offset, level) * 8
                # Under nested paging the table pointer is an IPA: the fetch
                # address itself needs a stage-2 translation.
                desc_pa = self.stage2_translate(desc_ipa, is_write=False)
                raw = self.caches.read(desc_pa, cacheable=True)
                fetched += 1
                if not raw & DESC_VALID:
                    raise TranslationFault(
                        f"translation fault at {vaddr:#x} (level {level})", vaddr=vaddr
                    )
                if level < 3 and raw & DESC_TABLE:
                    table_ipa = raw & DESC_ADDR_MASK
                    continue
                span = LEVEL_SPAN[level]
                page_base = (raw & DESC_ADDR_MASK) + (
                    align_down(offset, PAGE_BYTES) - align_down(offset, span)
                )
                return _TlbEntry(
                    page_paddr=page_base,
                    writable=bool(raw & DESC_AP_WRITE),
                    user=bool(raw & DESC_USER),
                    cacheable=not raw & DESC_NC,
                    cow=bool(raw & DESC_COW),
                    executable=not raw & DESC_XN,
                    level=level,
                )
        finally:
            if fetched:
                self.caches.bus.clock.advance(self.costs.walk_step_overhead * fetched)
                self.stats.add("stage1_desc_fetches", fetched)
        raise AssertionError("unreachable: stage-1 walk fell through")

    @staticmethod
    def _check_permissions(
        entry: _TlbEntry, vaddr: int, is_write: bool, el: int, is_exec: bool
    ) -> None:
        if el == 0 and not entry.user:
            raise PermissionFault(
                f"EL0 access to privileged page {vaddr:#x}", vaddr=vaddr, el=el
            )
        if is_write and not entry.writable:
            raise PermissionFault(
                f"write to read-only page {vaddr:#x}", vaddr=vaddr, el=el
            )
        if is_exec and not entry.executable:
            raise PermissionFault(
                f"execute from XN page {vaddr:#x}", vaddr=vaddr, el=el
            )
