"""Set-associative write-back cache models.

The caches are *timing-only*: data always lives in
:class:`~repro.hw.memory.PhysicalMemory` (the backing store is updated on
every write), while the cache models track which lines would be resident
and dirty, charge hit/miss latencies, and generate the line-fill and
writeback bus traffic that a real hierarchy would.

The property that matters for Hypernel: a **cacheable** write updates the
cache and does *not* produce a word-granular bus transaction — only an
eventual ``WRITEBACK`` of the whole line, without per-word values.  The
MBM therefore cannot monitor cacheable pages, which is why Hypersec maps
monitored pages non-cacheable (paper section 5.3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.config import LINE_BYTES, PAGE_BYTES, WORD_BYTES, CostModel
from repro.errors import ConfigurationError
from repro.hw.bus import MemoryBus
from repro.utils.bitops import align_down
from repro.utils.stats import StatSet


class Cache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, name: str, size_bytes: int, ways: int, line_bytes: int = LINE_BYTES):
        if size_bytes % (ways * line_bytes) != 0:
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_bytes})"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        # Precomputed shift/mask set indexing for the (usual) power-of-two
        # geometry; ``None`` falls back to divide/modulo.
        if line_bytes & (line_bytes - 1) == 0 and self.num_sets & (self.num_sets - 1) == 0:
            self._line_shift: Optional[int] = line_bytes.bit_length() - 1
            self._set_mask = self.num_sets - 1
        else:
            self._line_shift = None
            self._set_mask = 0
        # Per-set LRU ordering: maps line base address -> dirty flag.
        # OrderedDict order is LRU -> MRU.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self._hits = 0
        self._misses = 0
        self.stats = StatSet(name)
        self.stats.flush_hook = self._flush_pending

    def _flush_pending(self) -> None:
        if self._hits:
            hits, self._hits = self._hits, 0
            self.stats.add("hits", hits)
        if self._misses:
            misses, self._misses = self._misses, 0
            self.stats.add("misses", misses)

    def _set_index(self, line_addr: int) -> int:
        if self._line_shift is not None:
            return (line_addr >> self._line_shift) & self._set_mask
        return (line_addr // self.line_bytes) % self.num_sets

    def _set_for(self, line_addr: int) -> "OrderedDict[int, bool]":
        return self._sets.setdefault(self._set_index(line_addr), OrderedDict())

    def lookup(self, line_addr: int, touch: bool = True) -> bool:
        """True if the line is resident; refreshes LRU when ``touch``."""
        lines = self._sets.get(self._set_index(line_addr))
        if lines is not None and line_addr in lines:
            if touch:
                lines.move_to_end(line_addr)
            self._hits += 1
            return True
        self._misses += 1
        return False

    def insert(self, line_addr: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert a line; returns ``(evicted_addr, was_dirty)`` or ``None``.

        If the line is already present this only merges the dirty bit.
        """
        lines = self._set_for(line_addr)
        if line_addr in lines:
            lines[line_addr] = lines[line_addr] or dirty
            lines.move_to_end(line_addr)
            return None
        evicted = None
        if len(lines) >= self.ways:
            evicted_addr, was_dirty = lines.popitem(last=False)
            evicted = (evicted_addr, was_dirty)
            self.stats.add("evictions")
            if was_dirty:
                self.stats.add("dirty_evictions")
        lines[line_addr] = dirty
        return evicted

    def mark_dirty(self, line_addr: int) -> None:
        """Set the dirty bit of a resident line (no-op when absent)."""
        lines = self._sets.get(self._set_index(line_addr))
        if lines is not None and line_addr in lines:
            lines[line_addr] = True

    def remove_range(self, first: int, limit: int) -> Dict[int, bool]:
        """Invalidate every resident line in ``[first, limit)``; returns
        ``{line: dirty}`` for the lines removed.

        Visits each set the range maps to once and scans only that
        set's resident lines, so a range larger than the cache costs
        what the cache holds rather than one probe per line.
        """
        removed: Dict[int, bool] = {}
        sets = self._sets
        num_sets = self.num_sets
        start = first // self.line_bytes
        touched = min((limit - first) // self.line_bytes, num_sets)
        for index in range(start, start + touched):
            lines = sets.get(index % num_sets)
            if lines:
                for line in [line for line in lines if first <= line < limit]:
                    removed[line] = lines.pop(line)
        return removed

    def invalidate_all(self) -> None:
        """Drop every line without writeback (power-on state)."""
        self._sets.clear()


class CacheHierarchy:
    """A two-level (L1 + unified L2) write-back write-allocate hierarchy.

    Front door for all CPU-originated memory traffic:

    * non-cacheable accesses bypass straight to the bus word-by-word,
    * cacheable accesses hit/miss through L1 then L2, generating
      ``LINE_FILL`` and ``WRITEBACK`` bus traffic on misses/evictions.
    """

    def __init__(self, l1: Cache, l2: Cache, bus: MemoryBus, costs: CostModel):
        if l1.line_bytes != l2.line_bytes:
            raise ConfigurationError("L1 and L2 must share a line size")
        self.l1 = l1
        self.l2 = l2
        self.bus = bus
        self.costs = costs
        self.stats = StatSet("cache_hierarchy")
        self.stats.flush_hook = self._flush_pending
        self._line_mask = ~(l1.line_bytes - 1)
        self._cached_reads = 0
        self._cached_writes = 0
        self._uncached_reads = 0
        self._uncached_writes = 0

    def _flush_pending(self) -> None:
        stats = self.stats
        for key, attr in (
            ("cached_reads", "_cached_reads"),
            ("cached_writes", "_cached_writes"),
            ("uncached_reads", "_uncached_reads"),
            ("uncached_writes", "_uncached_writes"),
        ):
            pending = getattr(self, attr)
            if pending:
                setattr(self, attr, 0)
                stats.add(key, pending)

    # ------------------------------------------------------------------
    def _ensure_resident(self, paddr: int, initiator: str) -> None:
        """Bring the line containing ``paddr`` into L1 (and L2), charging
        the appropriate latencies and emitting fill/writeback traffic."""
        line = paddr & self._line_mask
        if self.l1.lookup(line):
            self.bus.clock.advance(self.costs.l1_hit)
            return
        if self.l2.lookup(line):
            self.bus.clock.advance(self.costs.l1_hit + self.costs.l2_hit)
        else:
            # Full miss: fetch from DRAM (bus charges the burst).
            self.bus.clock.advance(self.costs.l1_hit + self.costs.l2_hit)
            self.bus.fill_line(line, initiator=initiator)
            evicted = self.l2.insert(line, dirty=False)
            if evicted is not None and evicted[1]:
                self.bus.writeback_line(evicted[0], initiator=initiator)
        evicted = self.l1.insert(line, dirty=False)
        if evicted is not None:
            evicted_addr, was_dirty = evicted
            # L1 victim folds into L2 (dirty bit merges); if L2 must evict
            # a dirty line to make room, that one goes to DRAM.
            displaced = self.l2.insert(evicted_addr, dirty=was_dirty)
            if displaced is not None and displaced[1]:
                self.bus.writeback_line(displaced[0], initiator=initiator)

    # ------------------------------------------------------------------
    # Public access API
    # ------------------------------------------------------------------
    def read(self, paddr: int, cacheable: bool, initiator: str = "cpu") -> int:
        """Read one word through the hierarchy."""
        if not cacheable:
            self._uncached_reads += 1
            return self.bus.read(paddr, initiator=initiator)
        self._cached_reads += 1
        # Inline L1-hit fast path: identical accounting to
        # ``_ensure_resident`` (lookup-touch, batched hit counter, one
        # l1_hit charge) without the call chain.
        l1 = self.l1
        if l1._line_shift is not None:
            line = paddr & self._line_mask
            lines = l1._sets.get((line >> l1._line_shift) & l1._set_mask)
            if lines is not None and line in lines:
                lines.move_to_end(line)
                l1._hits += 1
                self.bus.clock.advance(self.costs.l1_hit)
                return self.bus.memory.read_word(paddr)
        self._ensure_resident(paddr, initiator)
        return self.bus.memory.read_word(paddr)

    def write(self, paddr: int, value: int, cacheable: bool, initiator: str = "cpu") -> None:
        """Write one word through the hierarchy.

        Cacheable writes update the backing store silently (timing-only
        cache) and mark the line dirty; the word-level transaction never
        appears on the bus.
        """
        if not cacheable:
            self._uncached_writes += 1
            self.bus.write(paddr, value, initiator=initiator)
            return
        self._cached_writes += 1
        l1 = self.l1
        if l1._line_shift is not None:
            line = paddr & self._line_mask
            lines = l1._sets.get((line >> l1._line_shift) & l1._set_mask)
            if lines is not None and line in lines:
                lines.move_to_end(line)
                lines[line] = True
                l1._hits += 1
                self.bus.clock.advance(self.costs.l1_hit)
                self.bus.memory.write_word(paddr, value)
                return
        self._ensure_resident(paddr, initiator)
        self.l1.mark_dirty(paddr & self._line_mask)
        self.bus.memory.write_word(paddr, value)

    def touch_block(self, paddr: int, nwords: int, is_write: bool) -> None:
        """Run a sequential ``nwords`` access stream through the caches.

        Reads fill lines normally.  Writes use streaming-store semantics
        (write-allocate-no-fetch, as ``DC ZVA`` / non-temporal stores
        give bulk memset/memcpy on real ARM cores): whole lines are
        installed dirty without fetching their old contents, so a page
        clear costs cache-write bandwidth rather than a fill per line.
        Word values are not tracked — this is the cacheable counterpart
        of :meth:`~repro.hw.bus.MemoryBus.write_block`.

        Both directions run as one batched loop over both cache levels:
        per-line latencies and hit/miss/eviction counters accumulate in
        locals and fold into the clock / StatSets once per burst.  Sums
        and event order (fills, writebacks, DRAM row transitions) are
        identical to the per-line reference paths ``_ensure_resident``
        (reads, see ``_read_lines``) and ``_install_dirty`` (writes),
        which remain the fallback for non-power-of-two geometries.
        """
        if nwords <= 0:
            return
        line_bytes = self.l1.line_bytes
        first = paddr & self._line_mask
        last = (paddr + (nwords - 1) * WORD_BYTES) & self._line_mask
        l1 = self.l1
        l2 = self.l2
        if l1._line_shift is None or l2._line_shift is None:
            for line in range(first, last + 1, line_bytes):
                if is_write:
                    self._install_dirty(line)
                else:
                    self._ensure_resident(line, initiator="cpu")
            return
        if not is_write:
            self._read_lines(first, last)
            return
        # ---- batched streaming-store path --------------------------------
        l1_sets = l1._sets
        l1_shift = l1._line_shift
        l1_mask = l1._set_mask
        l1_ways = l1.ways
        l2_sets = l2._sets
        l2_shift = l2._line_shift
        l2_mask = l2._set_mask
        l2_ways = l2.ways
        writeback = self.bus.writeback_line
        l1_hits = 0
        l1_misses = 0
        l1_evictions = 0
        l1_dirty_evictions = 0
        l2_evictions = 0
        l2_dirty_evictions = 0
        nlines = 0
        for line in range(first, last + 1, line_bytes):
            nlines += 1
            lines = l1_sets.get((line >> l1_shift) & l1_mask)
            if lines is None:
                lines = l1_sets[(line >> l1_shift) & l1_mask] = OrderedDict()
            elif line in lines:
                lines.move_to_end(line)
                lines[line] = True
                l1_hits += 1
                continue
            l1_misses += 1
            if len(lines) >= l1_ways:
                ev_addr, ev_dirty = lines.popitem(last=False)
                l1_evictions += 1
                if ev_dirty:
                    l1_dirty_evictions += 1
                # L1 victim folds into L2 (dirty bit merges).
                l2_lines = l2_sets.get((ev_addr >> l2_shift) & l2_mask)
                if l2_lines is None:
                    l2_lines = l2_sets[(ev_addr >> l2_shift) & l2_mask] = OrderedDict()
                if ev_addr in l2_lines:
                    l2_lines[ev_addr] = l2_lines[ev_addr] or ev_dirty
                    l2_lines.move_to_end(ev_addr)
                else:
                    if len(l2_lines) >= l2_ways:
                        d_addr, d_dirty = l2_lines.popitem(last=False)
                        l2_evictions += 1
                        if d_dirty:
                            l2_dirty_evictions += 1
                            writeback(d_addr, initiator="cpu")
                    l2_lines[ev_addr] = ev_dirty
            lines[line] = True
        l1._hits += l1_hits
        l1._misses += l1_misses
        if l1_evictions:
            l1.stats.add("evictions", l1_evictions)
        if l1_dirty_evictions:
            l1.stats.add("dirty_evictions", l1_dirty_evictions)
        if l2_evictions:
            l2.stats.add("evictions", l2_evictions)
        if l2_dirty_evictions:
            l2.stats.add("dirty_evictions", l2_dirty_evictions)
        self.bus.clock.advance(self.costs.l1_hit * nlines)

    def _read_lines(self, first: int, last: int) -> None:
        """Batched read stream over the lines ``first..last``.

        Equivalent to ``_ensure_resident`` on each line in turn, for
        power-of-two geometries of both levels.  Pending latency is
        charged to the clock before every line fill and writeback, so
        each bus transaction sees the clock value, and DRAM the request
        order, of the per-line path.
        """
        l1 = self.l1
        l2 = self.l2
        l1_sets = l1._sets
        l1_shift = l1._line_shift
        l1_mask = l1._set_mask
        l1_ways = l1.ways
        l2_sets = l2._sets
        l2_shift = l2._line_shift
        l2_mask = l2._set_mask
        l2_ways = l2.ways
        clock = self.bus.clock
        fill = self.bus.fill_line
        writeback = self.bus.writeback_line
        l1_hit = self.costs.l1_hit
        miss_cycles = l1_hit + self.costs.l2_hit
        pending = 0
        l1_hits = 0
        l1_misses = 0
        l1_evictions = 0
        l1_dirty_evictions = 0
        l2_hits = 0
        l2_misses = 0
        l2_evictions = 0
        l2_dirty_evictions = 0
        for line in range(first, last + 1, l1.line_bytes):
            lines = l1_sets.get((line >> l1_shift) & l1_mask)
            if lines is not None and line in lines:
                lines.move_to_end(line)
                l1_hits += 1
                pending += l1_hit
                continue
            l1_misses += 1
            pending += miss_cycles
            l2_lines = l2_sets.get((line >> l2_shift) & l2_mask)
            if l2_lines is not None and line in l2_lines:
                l2_lines.move_to_end(line)
                l2_hits += 1
            else:
                # Full miss: fetch from DRAM, then install clean in L2.
                l2_misses += 1
                clock.advance(pending)
                pending = 0
                fill(line, initiator="cpu")
                if l2_lines is None:
                    l2_lines = l2_sets[(line >> l2_shift) & l2_mask] = OrderedDict()
                if len(l2_lines) >= l2_ways:
                    d_addr, d_dirty = l2_lines.popitem(last=False)
                    l2_evictions += 1
                    if d_dirty:
                        l2_dirty_evictions += 1
                        writeback(d_addr, initiator="cpu")
                l2_lines[line] = False
            if lines is None:
                lines = l1_sets[(line >> l1_shift) & l1_mask] = OrderedDict()
            if len(lines) >= l1_ways:
                ev_addr, ev_dirty = lines.popitem(last=False)
                l1_evictions += 1
                if ev_dirty:
                    l1_dirty_evictions += 1
                # L1 victim folds into L2 (dirty bit merges).
                v_lines = l2_sets.get((ev_addr >> l2_shift) & l2_mask)
                if v_lines is None:
                    v_lines = l2_sets[(ev_addr >> l2_shift) & l2_mask] = OrderedDict()
                if ev_addr in v_lines:
                    v_lines[ev_addr] = v_lines[ev_addr] or ev_dirty
                    v_lines.move_to_end(ev_addr)
                else:
                    if len(v_lines) >= l2_ways:
                        d_addr, d_dirty = v_lines.popitem(last=False)
                        l2_evictions += 1
                        if d_dirty:
                            l2_dirty_evictions += 1
                            clock.advance(pending)
                            pending = 0
                            writeback(d_addr, initiator="cpu")
                    v_lines[ev_addr] = ev_dirty
            lines[line] = False
        clock.advance(pending)
        l1._hits += l1_hits
        l1._misses += l1_misses
        l2._hits += l2_hits
        l2._misses += l2_misses
        if l1_evictions:
            l1.stats.add("evictions", l1_evictions)
        if l1_dirty_evictions:
            l1.stats.add("dirty_evictions", l1_dirty_evictions)
        if l2_evictions:
            l2.stats.add("evictions", l2_evictions)
        if l2_dirty_evictions:
            l2.stats.add("dirty_evictions", l2_dirty_evictions)

    def _install_dirty(self, line: int) -> None:
        """Install a whole line dirty without fetching it (streaming)."""
        self.bus.clock.advance(self.costs.l1_hit)
        if self.l1.lookup(line):
            self.l1.mark_dirty(line)
            return
        evicted = self.l1.insert(line, dirty=True)
        if evicted is not None:
            evicted_addr, was_dirty = evicted
            displaced = self.l2.insert(evicted_addr, dirty=was_dirty)
            if displaced is not None and displaced[1]:
                self.bus.writeback_line(displaced[0], initiator="cpu")

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def clean_invalidate_page(self, page_paddr: int) -> int:
        """Clean+invalidate every line of the 4 KB page at ``page_paddr``;
        returns the number of lines written back."""
        return self.clean_invalidate_range(page_paddr, PAGE_BYTES)

    def clean_invalidate_range(self, base: int, nbytes: int) -> int:
        """Clean+invalidate every line of the ``nbytes`` (a multiple of
        4 KB) starting at the page holding ``base``.

        Used by Hypersec when it turns memory non-cacheable: the range's
        resident lines leave L1 and L2 in one pass over each level's
        sets, then the dirty ones (dirty in either level) are written
        back in ascending address order, clean ones dropped.  Bus
        traffic, clock and stats equal a page-by-page, line-by-line
        flush; ``page_maintenance_ops`` counts one per 4 KB page.
        Returns the number of lines written back.
        """
        first = align_down(base, PAGE_BYTES)
        limit = first + nbytes
        dirty = self.l1.remove_range(first, limit)
        for line, was_dirty in self.l2.remove_range(first, limit).items():
            dirty[line] = dirty.get(line, False) or was_dirty
        written_back = sorted(line for line, was_dirty in dirty.items()
                              if was_dirty)
        for line in written_back:
            self.bus.writeback_line(line)
        self.stats.add("page_maintenance_ops", nbytes // PAGE_BYTES)
        return len(written_back)
