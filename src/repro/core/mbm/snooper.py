"""The MBM's bus-traffic snooper.

Paper section 6.3: "The bus traffic snooper, a hardware module that
monitors the memory bus traffic, captures the write address/value
pairs."  It also does the housekeeping only a bus-resident agent can:

* snoops writes to the bitmap's own storage to keep the bitmap cache
  write-updated (section 6.3);
* flags dirty-line writebacks that overlap monitored words — a write
  the monitor could *not* decode, which is why Hypersec maps monitored
  pages non-cacheable (section 5.3);
* flags non-CPU (DMA) writes into the secure region — the bus-level
  tamper detection sketched in the paper's Discussion section.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import WORD_BYTES
from repro.hw.bus import BusTransaction, TxnKind
from repro.utils.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mbm.mbm import MemoryBusMonitor


class BusTrafficSnooper:
    """The bus-facing front end of the MBM."""

    def __init__(self, mbm: "MemoryBusMonitor"):
        self.mbm = mbm
        self._observed = 0
        self._captured = 0
        self.stats = StatSet("mbm_snooper")
        self.stats.flush_hook = self._flush_pending
        # The snooper runs once per bus transaction — the hottest call
        # site in a monitored system.  The pipeline objects it forwards
        # to are created once and mutated in place, so their bound
        # methods and the bitmap geometry can be captured here instead
        # of chased through ``self.mbm`` on every event.
        self._bitmap_lo, self._bitmap_hi = mbm.bitmap_storage
        self._covers = mbm.bitmap.covers
        self._snoop_update = mbm.bitmap_cache.snoop_update
        self._capture = mbm.capture

    def _flush_pending(self) -> None:
        if self._observed:
            observed, self._observed = self._observed, 0
            self.stats.add("observed", observed)
        if self._captured:
            captured, self._captured = self._captured, 0
            self.stats.add("captured", captured)

    def __call__(self, txn: BusTransaction) -> None:
        """Observe one bus transaction (installed as a bus snooper)."""
        initiator = txn.initiator
        if initiator == "mbm":
            return  # our own bitmap fetches / ring stores
        self._observed += 1
        if initiator != "cpu" and txn.is_write_like:
            # Secure-region tamper detection (DMA attack, Discussion).
            if self._overlaps_secure(txn):
                self.stats.add("secure_tamper_writes")
                self.mbm.tamper_alert.fire(txn)
        kind = txn.kind
        if kind is TxnKind.WRITE:
            paddr = txn.paddr
            if self._bitmap_lo <= paddr < self._bitmap_hi:
                # Hypersec updating the bitmap: write-update the cache.
                self._snoop_update(paddr, txn.value or 0)
                return
            if self._covers(paddr):
                self._captured += 1
                self._capture(paddr, txn.value)
        elif kind is TxnKind.BLOCK_WRITE:
            if self._covers(txn.paddr):
                self.stats.add("captured_blocks")
                self.mbm.capture_block(txn.paddr, txn.nwords)
        elif kind is TxnKind.WRITEBACK:
            if self._covers(txn.paddr):
                self.mbm.note_writeback(txn.paddr, txn.nwords)

    def _overlaps_secure(self, txn: BusTransaction) -> bool:
        secure_base, secure_limit = self.mbm.secure_range
        end = txn.paddr + txn.nwords * WORD_BYTES
        return txn.paddr < secure_limit and end > secure_base
