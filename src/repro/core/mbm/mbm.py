"""The assembled Memory Bus Monitor.

Wires the Figure 5 pipeline together — snooper -> FIFO -> bitmap
translator (+ bitmap cache) -> decision unit -> ring buffer + IRQ — and
owns the secure-memory layout of the bitmap and ring buffer.

The monitor runs off the CPU's critical path: its own memory traffic is
uncharged on the global clock and accumulates in ``busy_cycles``
(occupancy), which the bitmap-cache ablation reports.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import WORD_BYTES
from repro.errors import ConfigurationError
from repro.hw.platform import MBM_IRQ, Platform
from repro.core.mbm.bitmap import WordBitmap
from repro.core.mbm.bitmap_cache import BitmapCache
from repro.core.mbm.decision import DecisionUnit
from repro.core.mbm.fifo import CaptureFifo
from repro.core.mbm.ringbuf import EventRingBuffer
from repro.core.mbm.snooper import BusTrafficSnooper
from repro.core.mbm.translator import BitmapTranslator
from repro.utils.bitops import align_up
from repro.utils.events import EventHook
from repro.utils.stats import StatSet


class MemoryBusMonitor:
    """The MBM device on one platform."""

    def __init__(
        self,
        platform: Platform,
        bitmap_cache_enabled: bool = True,
        raise_interrupts: bool = True,
        irq_coalesce: int = 1,
    ):
        """``irq_coalesce`` is an extension knob: raise the interrupt
        only every N-th detection (events accumulate safely in the ring
        buffer meanwhile).  N=1 is the paper's behaviour — one interrupt
        per event; larger N trades notification latency for fewer
        EL1->EL2 round trips under event storms.  Call
        :meth:`flush_events` to deliver stragglers."""
        if irq_coalesce < 1:
            raise ConfigurationError("irq_coalesce must be >= 1")
        self.platform = platform
        config = platform.config
        costs = config.costs
        self.irq_coalesce = irq_coalesce
        self._undelivered = 0
        self.stats = StatSet("mbm")
        self.stats.flush_hook = self._flush_pending
        self._irqs_raised = 0  # batched hot-path counter (see StatSet docs)
        self.tamper_alert = EventHook("mbm_tamper")

        # ---- secure-memory layout -------------------------------------
        # [hypersec image pad | bitmap | ring buffer]
        bitmap_base = platform.secure_base + 1024 * 1024
        self.bitmap = WordBitmap(
            bitmap_base,
            covered_base=config.dram_base,
            covered_limit=platform.secure_base,
        )
        self.bitmap_storage: Tuple[int, int] = self.bitmap.bitmap_range()
        ring_base = align_up(self.bitmap_storage[1], 4096)
        self.ring = EventRingBuffer(
            platform.bus, ring_base, entries=config.mbm_ring_entries
        )
        if ring_base + self.ring.size_bytes > platform.secure_limit:
            raise ConfigurationError("secure region too small for MBM state")

        # ---- pipeline --------------------------------------------------
        self.fifo = CaptureFifo(config.mbm_fifo_entries)
        self.bitmap_cache = BitmapCache(
            config.mbm_bitmap_cache_lines, enabled=bitmap_cache_enabled
        )
        self.translator = BitmapTranslator(
            platform.bus, self.bitmap, self.bitmap_cache, costs
        )
        raise_irq = self._raise_irq if raise_interrupts else None
        self.decision = DecisionUnit(self.ring, costs, raise_irq)
        self.snooper = BusTrafficSnooper(self)
        self._costs = costs
        self._snoop_cost = costs.mbm_snoop
        self._attached = False
        # Non-zero only inside expected_flush() brackets, which close
        # within one hypercall.
        self._expected_flush_depth = 0

    def _flush_pending(self) -> None:
        if self._irqs_raised:
            raised, self._irqs_raised = self._irqs_raised, 0
            self.stats.add("irqs_raised", raised)

    # ------------------------------------------------------------------
    @property
    def secure_range(self) -> Tuple[int, int]:
        return self.platform.secure_base, self.platform.secure_limit

    @property
    def busy_cycles(self) -> int:
        """Total monitor occupancy (snoop + translate + decide)."""
        return self.translator.busy_cycles + self.decision.busy_cycles

    @property
    def events_detected(self) -> int:
        """Monitored-write detections (== interrupts without coalescing),
        the quantity Table 2 reports."""
        return self.decision.stats.get("hits")

    @property
    def events_lost(self) -> int:
        """Events the pipeline dropped anywhere: capture-FIFO overruns
        plus ring-buffer overflows.  Non-zero means detections are
        missing and any monitoring result from this run is suspect —
        repro.obs turns this into a hard integrity failure."""
        return self.fifo.stats.get("dropped") + self.decision.stats.get(
            "lost_events"
        )

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Connect the snooper to the memory bus."""
        if self._attached:
            raise ConfigurationError("MBM already attached")
        self.platform.bus.attach_snooper(self.snooper)
        self._attached = True

    def detach(self) -> None:
        self.platform.bus.detach_snooper(self.snooper)
        self._attached = False

    def _raise_irq(self) -> None:
        self._undelivered += 1
        if self._undelivered < self.irq_coalesce:
            self.stats.add("irqs_coalesced")
            return
        self._undelivered = 0
        self._irqs_raised += 1
        self.platform.gic.raise_irq(MBM_IRQ)

    def flush_events(self) -> None:
        """Deliver any detections held back by interrupt coalescing."""
        if self._undelivered:
            self._undelivered = 0
            self._irqs_raised += 1
            self.platform.gic.raise_irq(MBM_IRQ)

    # ------------------------------------------------------------------
    # Pipeline entry points (called by the snooper)
    # ------------------------------------------------------------------
    def capture(self, paddr: int, value: Optional[int]) -> None:
        """One word write: FIFO -> translate -> decide."""
        self.translator.busy_cycles += self._snoop_cost
        if not self.fifo.push(paddr, value):
            self.stats.add("fifo_drops")
            return
        entry = self.fifo.pop()
        assert entry is not None
        word_paddr, word_value = entry
        bitmap_word, bit = self.translator.translate(word_paddr)
        self.decision.decide(word_paddr, word_value, bitmap_word, bit)

    def capture_block(self, paddr: int, nwords: int) -> None:
        """A modelled burst of sequential writes: the translator fetches
        each covering bitmap word once and the decision unit walks the
        set bits (values are unavailable for block-modelled streams)."""
        self.translator.busy_cycles += self._snoop_cost
        for word_addr, mask in self.bitmap.words_for_range(
            paddr, nwords * WORD_BYTES
        ):
            word_value = self.translator.fetch_word(word_addr)
            hits = word_value & mask
            while hits:
                bit = (hits & -hits).bit_length() - 1
                hits &= hits - 1
                # Each bitmap word covers 64 consecutive machine words.
                event_paddr = (
                    self.bitmap.covered_base
                    + ((word_addr - self.bitmap.bitmap_base) // WORD_BYTES)
                    * 64
                    * WORD_BYTES
                    + bit * WORD_BYTES
                )
                self.decision.decide(event_paddr, None, word_value, bit)

    def note_writeback(self, line_paddr: int, nwords: int) -> None:
        """A dirty-line writeback covered monitored words: the per-word
        values were invisible, so events may have been missed.  Hypersec
        prevents this by making monitored pages non-cacheable; the
        counter exists to prove that necessity.

        The one legitimate exception is Hypersec's own registration
        flush: region registration arms the bitmap bits and *then*
        clean-invalidates the page, so the flushed lines hold values
        written before monitoring began — not missed events.  Hypersec
        brackets that flush with :meth:`expected_flush`, which rebuckets
        the count as ``flushed_writebacks`` (the mitigation observably
        doing its job) instead of ``writeback_hazards`` (an integrity
        failure).  The bitmap scan itself is identical either way, so
        suppression never changes bus traffic or monitor occupancy."""
        for word_addr, mask in self.bitmap.words_for_range(
            line_paddr, nwords * WORD_BYTES
        ):
            if self.translator.fetch_word(word_addr) & mask:
                if self._expected_flush_depth:
                    self.stats.add("flushed_writebacks")
                else:
                    self.stats.add("writeback_hazards")
                return

    def expected_flush(self):
        """Context manager marking an intentional clean-invalidate of
        monitored pages (see :meth:`note_writeback`)."""
        return _ExpectedFlush(self)


class _ExpectedFlush:
    """Re-entrant bracket for Hypersec's registration flushes."""

    def __init__(self, mbm: MemoryBusMonitor):
        self._mbm = mbm

    def __enter__(self) -> "_ExpectedFlush":
        self._mbm._expected_flush_depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._mbm._expected_flush_depth -= 1
