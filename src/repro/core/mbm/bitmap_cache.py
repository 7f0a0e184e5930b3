"""The MBM's bitmap cache.

Paper section 6.3: "accessing the main memory and fetching the bitmap
data for every write event in the same region is inefficient, [so] we
implemented a bitmap cache in MBM.  The bitmap cache follows the
read-allocate cache policy and is updated when a memory write event to
the bitmap is detected."

Modelled as a small fully-associative LRU cache of bitmap *words*.  The
write-update path is driven by the snooper: Hypersec's (uncached) bitmap
stores appear on the bus and refresh any cached copy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.utils.stats import StatSet


class BitmapCache:
    """Fully-associative LRU cache of 64-bit bitmap words."""

    def __init__(self, entries: int = 64, enabled: bool = True):
        if entries <= 0:
            raise ValueError(f"cache needs a positive capacity, got {entries}")
        self.capacity = entries
        self.enabled = enabled
        self._lines: "OrderedDict[int, int]" = OrderedDict()
        self.stats = StatSet("mbm_bitmap_cache")
        self.stats.flush_hook = self._flush_pending
        # Batched hot-path counters: lookup() runs once per captured
        # write event (see StatSet docs).
        self._hits = 0
        self._misses = 0
        self._bypasses = 0

    def _flush_pending(self) -> None:
        stats = self.stats
        if self._hits:
            hits, self._hits = self._hits, 0
            stats.add("hits", hits)
        if self._misses:
            misses, self._misses = self._misses, 0
            stats.add("misses", misses)
        if self._bypasses:
            bypasses, self._bypasses = self._bypasses, 0
            stats.add("bypasses", bypasses)

    def lookup(self, bitmap_word_paddr: int) -> Optional[int]:
        """Cached value of the bitmap word, or ``None`` on a miss."""
        if not self.enabled:
            self._bypasses += 1
            return None
        value = self._lines.get(bitmap_word_paddr)
        if value is None:
            self._misses += 1
            return None
        self._lines.move_to_end(bitmap_word_paddr)
        self._hits += 1
        return value

    def fill(self, bitmap_word_paddr: int, value: int) -> None:
        """Read-allocate: install a word fetched from main memory."""
        if not self.enabled:
            return
        if bitmap_word_paddr in self._lines:
            del self._lines[bitmap_word_paddr]
        elif len(self._lines) >= self.capacity:
            self._lines.popitem(last=False)
            self.stats.add("evictions")
        self._lines[bitmap_word_paddr] = value
        self.stats.add("fills")

    def snoop_update(self, bitmap_word_paddr: int, value: int) -> None:
        """A bus write to the bitmap was observed: update a cached copy.

        (Write-update rather than write-allocate: absent words stay
        absent, per the read-allocate policy.)
        """
        if self.enabled and bitmap_word_paddr in self._lines:
            self._lines[bitmap_word_paddr] = value
            self.stats.add("snoop_updates")

    def invalidate_all(self) -> None:
        self._lines.clear()

    def __len__(self) -> int:
        return len(self._lines)
