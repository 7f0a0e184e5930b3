"""The MBM's decision unit.

Paper section 6.3: "the decision unit checks if a bit of the bitmap
data, which represents whether the write event should be monitored or
not, is enabled.  If it is, the decision unit sends an interrupt to the
host CPU."  The event record goes to the ring buffer first (section
5.3), so Hypersec finds it there when it services the interrupt.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import CostModel
from repro.core.mbm.ringbuf import EventRingBuffer
from repro.utils.stats import StatSet


class DecisionUnit:
    """Tests bitmap bits and emits detections."""

    def __init__(
        self,
        ring: EventRingBuffer,
        costs: CostModel,
        raise_irq: Optional[Callable[[], None]] = None,
    ):
        self.ring = ring
        self.costs = costs
        self.raise_irq = raise_irq
        #: Optional detection observer ``(paddr, value, queued)``; wiring
        #: for :class:`repro.obs.export.DetectionTrace`.  A plain
        #: attribute (not an EventHook) keeps the no-observer hot path at
        #: one attribute load.
        self.on_hit: Optional[Callable[[int, Optional[int], bool], None]] = None
        self._checked = 0
        self._hits = 0
        self._decision_cost = costs.mbm_decision
        self.stats = StatSet("mbm_decision")
        self.stats.flush_hook = self._flush_pending
        self.busy_cycles = 0

    def _flush_pending(self) -> None:
        if self._checked:
            checked, self._checked = self._checked, 0
            self.stats.add("checked", checked)
        if self._hits:
            hits, self._hits = self._hits, 0
            self.stats.add("hits", hits)

    def decide(
        self, paddr: int, value: Optional[int], bitmap_word: int, bit: int
    ) -> bool:
        """Process one captured event; True when it was a monitored hit."""
        self.busy_cycles += self._decision_cost
        self._checked += 1
        if not (bitmap_word >> bit) & 1:
            return False
        self._hits += 1
        queued = self.ring.produce(paddr, value)
        if not queued:
            # Overflow: the record is gone, so notifying Hypersec would
            # only add an interrupt with nothing behind it (events
            # already queued keep their own pending notifications).
            # ``lost_events`` is a run-integrity failure — see
            # repro.obs.metrics.
            self.stats.add("lost_events")
        if self.on_hit is not None:
            self.on_hit(paddr, value, queued)
        if queued and self.raise_irq is not None:
            self.raise_irq()
        return True
