"""The MBM capture FIFO.

Sits between the bus-traffic snooper and the bitmap translator (paper
Figure 5): snooped write address/value pairs are queued here while the
translator works.  The simulation drains the FIFO synchronously, so the
structure mainly models *capacity*: a burst larger than the FIFO drops
events, which the hardware reports via a sticky overrun flag (a real
monitor must be provisioned so this never happens silently).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.utils.stats import StatSet

#: (paddr, value) — value is None for block-modelled streams.
FifoEntry = Tuple[int, Optional[int]]


class CaptureFifo:
    """Bounded FIFO of captured write events."""

    def __init__(self, depth: int = 64):
        if depth <= 0:
            raise ValueError(f"FIFO depth must be positive, got {depth}")
        self.depth = depth
        self._entries: Deque[FifoEntry] = deque()
        #: Sticky overrun flag, reported as the counter ``overrun``.
        self.overrun = False
        self._pushed = 0
        self._popped = 0
        self._dropped = 0
        #: High-water mark: the deepest occupancy ever.
        self.max_depth = 0
        self.stats = StatSet(
            "mbm_fifo", self, "_pushed", "_popped", "_dropped", "max_depth",
            "overrun",
        )

    def push(self, paddr: int, value: Optional[int]) -> bool:
        """Capture one event; returns False (and sets the overrun flag)
        when the FIFO is full and the event is lost."""
        entries = self._entries
        if len(entries) >= self.depth:
            self.overrun = True
            self._dropped += 1
            return False
        entries.append((paddr, value))
        self._pushed += 1
        high = len(entries)
        if high > self.max_depth:
            self.max_depth = high
        return True

    def pop(self) -> Optional[FifoEntry]:
        """Remove and return the oldest event, or ``None`` when empty."""
        if not self._entries:
            return None
        self._popped += 1
        return self._entries.popleft()

    def __len__(self) -> int:
        return len(self._entries)
