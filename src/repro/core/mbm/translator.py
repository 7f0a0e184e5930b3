"""The MBM's bitmap translator.

Paper section 6.3: "When the bitmap translator is in the idle state, it
loads the captured data from the FIFO buffer and calculates the
corresponding bitmap address.  Then, the bitmap translator reads the
bitmap data from the main memory" — through the bitmap cache.

The translator issues its own bus reads (initiator ``"mbm"``), which do
not stall the CPU: its latency accumulates in the monitor's occupancy
statistics instead.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.hw.bus import MemoryBus
from repro.core.mbm.bitmap import WordBitmap
from repro.core.mbm.bitmap_cache import BitmapCache
from repro.utils.stats import StatSet


class BitmapTranslator:
    """Computes and fetches the bitmap word for captured events."""

    def __init__(
        self,
        bus: MemoryBus,
        bitmap: WordBitmap,
        cache: BitmapCache,
        costs: CostModel,
    ):
        self.bus = bus
        self.bitmap = bitmap
        self.cache = cache
        self.costs = costs
        self._translations = 0
        self.stats = StatSet("mbm_translator")
        self.stats.flush_hook = self._flush_pending
        self.busy_cycles = 0

    def _flush_pending(self) -> None:
        if self._translations:
            translations, self._translations = self._translations, 0
            self.stats.add("translations", translations)

    def fetch_word(self, bitmap_word_paddr: int) -> int:
        """Return the bitmap word, consulting the cache first."""
        cached = self.cache.lookup(bitmap_word_paddr)
        if cached is not None:
            self.busy_cycles += self.costs.mbm_bitmap_cache_hit
            return cached
        value = self.bus.read(bitmap_word_paddr, initiator="mbm", charge=False)
        self.busy_cycles += self.costs.mbm_bitmap_fetch
        self.stats.add("dram_fetches")
        self.cache.fill(bitmap_word_paddr, value)
        return value

    def translate(self, paddr: int) -> tuple[int, int]:
        """Bitmap word value and bit index for one captured address."""
        bitmap_word_paddr, bit = self.bitmap.locate(paddr)
        self._translations += 1
        return self.fetch_word(bitmap_word_paddr), bit
