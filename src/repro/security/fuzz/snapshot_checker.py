"""Offline, dissimilar verification of a Hypersec machine image.

This is the second verification channel the differential gate diffs
against the live auditor (:mod:`repro.core.audit`).  It deliberately
shares *no state* with the running system: :func:`capture_snapshot`
copies the evidence out of a live machine into a :class:`Snapshot`, and
everything is re-derived from that copy —

* physical memory is read from a private
  :class:`~repro.hw.memory.PhysicalMemory` copy (no bus, no caches, no
  timing), so later writes to the machine never reach the evidence;
* translation roots come from the snapshotted ``TTBR0_EL1`` /
  ``TTBR1_EL1`` register values, and reachable tables from walking the
  raw descriptors;
* monitored pages are decoded from the raw MBM bitmap words, whose
  location is recomputed from the platform geometry alone (mirroring
  the layout contract in :mod:`repro.core.mbm`, not reading the MBM
  object);
* the kernel linear-map view is re-walked from ``TTBR1_EL1`` instead of
  using :meth:`~repro.kernel.physmem.LinearMap.leaf_desc_addr`.

The only Hypersec bookkeeping consulted is the *claimed* policy
(``table_pages``, ``root_tables``, ``kernel_root``, ``recorded_regs``,
``regions``) — and it is consulted as a claim to be checked, never as
ground truth: ``claimed_tables`` feeds the reachable-vs-registered
``TABLE_TOPOLOGY`` comparison, and the claimed regions, laid out by
the same geometry-only bitmap contract, give the masks the raw bitmap
must hold.  Both channels therefore state ``BITMAP_CONSISTENT``, and a
bookkeeping desync the live auditor cannot see (it trusts the same
bookkeeping) becomes a finding here.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.config import PAGE_BYTES, PAGE_WORDS, WORD_BYTES, PlatformConfig
from repro.errors import SnapshotError
from repro.hw.memory import PhysicalMemory
from repro.arch.pagetable import Descriptor, index_for_level
from repro.security.fuzz.invariants import (
    Evidence,
    Geometry,
    InvariantReport,
    walk_tables,
)

_PAGE_MASK = PAGE_BYTES - 1

#: Layout contract with repro.core.mbm: the bitmap lives 1 MB into the
#: secure region, one bit per covered word, covering all of non-secure
#: DRAM.  Recomputed here from the geometry so this channel does not
#: read the MBM object.
_BITMAP_OFFSET = 1 << 20
_WORDS_PER_BITMAP_WORD = 64

#: Words per bulk read of the bitmap (64 KB), so a large machine's
#: bitmap is never held in one Python list.
_READ_WINDOW = 8192


@dataclass(frozen=True)
class Snapshot:
    """The evidence the offline channel reads, copied out of a machine.

    ``policy`` is Hypersec's *claimed* policy (``table_pages``,
    ``root_tables``, ``kernel_root``, ``recorded_regs``, ``regions``),
    or ``None`` for a system without Hypersec.
    """

    config: PlatformConfig
    memory: PhysicalMemory
    regs: Dict[str, int]
    policy: Optional[Dict[str, Any]]
    has_mbm: bool


def _claimed_policy(hypersec) -> Dict[str, Any]:
    """Hypersec's bookkeeping, which the offline checker treats as
    claims to verify against raw memory."""
    return {
        "table_pages": sorted(hypersec.table_pages),
        "root_tables": sorted(hypersec.root_tables),
        "kernel_root": hypersec.kernel_root,
        "recorded_regs": dict(hypersec.recorded_regs),
        "regions": sorted({region
                           for ranges in hypersec._region_index.values()
                           for region in ranges}),
    }


def capture_snapshot(system) -> Snapshot:
    """Copy a live system's evidence.  The platform config and memory
    are copied with ``pickle`` in this process, the same rule as the
    fuzzer's machine copies."""
    hypersec = system.hypersec
    config, memory = pickle.loads(pickle.dumps(
        (system.platform.config, system.platform.memory)))
    return Snapshot(
        config=config,
        memory=memory,
        regs=dict(system.cpu.regs._values),
        policy=None if hypersec is None else _claimed_policy(hypersec),
        has_mbm=system.mbm is not None,
    )


class SnapshotEvidence(Evidence):
    """A captured machine image as an invariant-checking evidence
    source (see module docstring for the dissimilarity contract)."""

    def __init__(self, snapshot: Snapshot):
        if snapshot.policy is None:
            raise SnapshotError(
                "snapshot carries no Hypersec policy; only hypernel images "
                "carry the policy to check"
            )
        config = snapshot.config
        dram_limit = config.dram_base + config.dram_bytes
        secure_base = dram_limit - config.secure_bytes
        self.geometry = Geometry(
            dram_base=config.dram_base,
            dram_limit=dram_limit,
            secure_base=secure_base,
            secure_limit=dram_limit,
        )
        self._memory = snapshot.memory
        self._regs = snapshot.regs
        policy = snapshot.policy
        self._claimed_tables = set(policy["table_pages"])
        self._claimed_roots = set(policy["root_tables"])
        self._recorded_root = policy["kernel_root"]
        self._recorded_regs = policy["recorded_regs"]
        self._claimed_regions = [
            (base, end) for base, end, _sid in policy["regions"]
        ]
        self._has_mbm = snapshot.has_mbm
        self._reachable: Optional[Set[int]] = None
        self._monitored: Optional[Set[int]] = None

    # -- raw access ----------------------------------------------------
    def peek(self, paddr: int) -> int:
        return self._memory.read_word(paddr)

    def peek_words(self, paddr: int, nwords: int) -> List[int]:
        return self._memory.read_words(paddr, nwords)

    def backed(self, paddr: int) -> bool:
        return self._memory.contains(paddr)

    def reg(self, name: str) -> int:
        return self._regs[name]

    def recorded_reg(self, name: str) -> Optional[int]:
        """Hypersec's recorded value for a trapped VM register."""
        return self._recorded_regs.get(name)

    # -- translation topology -----------------------------------------
    def roots(self) -> List[int]:
        """Walk from the *hardware* translation roots first (TTBR1/0),
        then every claimed root, so parked process trees are covered
        without trusting that the claimed set is complete."""
        roots = {self._regs["TTBR1_EL1"] & ~_PAGE_MASK}
        ttbr0 = self._regs["TTBR0_EL1"] & ~_PAGE_MASK
        if ttbr0:
            roots.add(ttbr0)
        roots.update(self._claimed_roots)
        roots.add(self._recorded_root & ~_PAGE_MASK)
        return sorted(roots)

    def table_pages(self) -> Set[int]:
        return set(self._claimed_tables)

    def claimed_tables(self) -> Optional[Set[int]]:
        return set(self._claimed_tables)

    def reachable_tables(self) -> Set[int]:
        """Every table page reachable from the roots (cached)."""
        if self._reachable is None:
            scratch = InvariantReport()
            self._reachable = {
                table
                for root in self.roots()
                for table, _level, _words in walk_tables(self, root, scratch)
            }
        return set(self._reachable)

    def table_is_empty(self, table: int) -> bool:
        """True when a (backed) table page holds only invalid entries."""
        if not (self.backed(table)
                and self.backed(table + PAGE_BYTES - WORD_BYTES)):
            return False
        return not any(self.peek_words(table, PAGE_WORDS))

    # -- linear-map view ----------------------------------------------
    def has_linear_view(self) -> bool:
        return True

    def linear_leaf(self, paddr: int) -> Optional[Descriptor]:
        """Re-walk the kernel linear map from TTBR1 in raw memory."""
        offset = paddr - self.geometry.dram_base
        if offset < 0:
            return None
        table = self._regs["TTBR1_EL1"] & ~_PAGE_MASK
        for level in (1, 2, 3):
            desc_addr = table + index_for_level(offset, level) * WORD_BYTES
            if not self.backed(desc_addr):
                return None
            desc = Descriptor(self.peek(desc_addr))
            if not desc.valid:
                return None
            if level == 3 or not desc.is_table:
                return desc
            table = desc.address
        return None  # pragma: no cover - loop always returns

    # -- monitoring ----------------------------------------------------
    def bitmap_storage(self) -> Optional[Tuple[int, int]]:
        if not self._has_mbm:
            return None
        covered_words = (
            self.geometry.secure_base - self.geometry.dram_base
        ) // WORD_BYTES
        bitmap_words = -(-covered_words // _WORDS_PER_BITMAP_WORD)
        base = self.geometry.secure_base + _BITMAP_OFFSET
        return base, base + bitmap_words * WORD_BYTES

    def monitored_pages(self) -> Set[int]:
        """Decode monitored pages from the raw bitmap words."""
        if self._monitored is None:
            pages: Set[int] = set()
            storage = self.bitmap_storage()
            if storage is not None:
                base, limit = storage
                nwords = (limit - base) // WORD_BYTES
                for start in range(0, nwords, _READ_WINDOW):
                    words = self.peek_words(base + start * WORD_BYTES,
                                            min(_READ_WINDOW, nwords - start))
                    if words.count(0) == len(words):
                        continue  # nothing set: the usual window
                    for index, raw in enumerate(words, start):
                        while raw:
                            bit = (raw & -raw).bit_length() - 1
                            raw &= raw - 1
                            word_index = (index * _WORDS_PER_BITMAP_WORD
                                          + bit)
                            paddr = (self.geometry.dram_base
                                     + word_index * WORD_BYTES)
                            pages.add(paddr & ~_PAGE_MASK)
            self._monitored = pages
        return set(self._monitored)

    def expected_bitmap(self) -> Optional[Dict[int, int]]:
        """The bitmap masks the *claimed* regions imply (word address ->
        mask), laid out by the geometry alone."""
        storage = self.bitmap_storage()
        if storage is None:
            return None
        bitmap_base = storage[0]
        dram_base = self.geometry.dram_base
        expected: Dict[int, int] = {}
        for base, end in self._claimed_regions:
            first = (base - dram_base) // WORD_BYTES
            last = (end - 1 - dram_base) // WORD_BYTES
            for word_index in range(first, last + 1):
                word, bit = divmod(word_index, _WORDS_PER_BITMAP_WORD)
                word_addr = bitmap_base + word * WORD_BYTES
                expected[word_addr] = expected.get(word_addr, 0) | 1 << bit
        return expected

    # -- recorded policy ----------------------------------------------
    def recorded_kernel_root(self) -> Optional[int]:
        return self._recorded_root

    def recorded_root_tables(self) -> Set[int]:
        return set(self._claimed_roots)
