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
        self.overrun = False
        self.stats = StatSet("mbm_fifo")
        self.stats.flush_hook = self._flush_pending
        # Batched hot-path counters (see StatSet docs).  ``max_depth``
        # is a high-water mark, not an increment: ``_max_seen`` tracks
        # the deepest occupancy ever, ``_max_flushed`` how much of it
        # the StatSet already holds — the flush adds the difference.
        self._pushed = 0
        self._popped = 0
        self._dropped = 0
        self._max_seen = 0
        self._max_flushed = 0

    def _flush_pending(self) -> None:
        stats = self.stats
        if self._pushed:
            pushed, self._pushed = self._pushed, 0
            stats.add("pushed", pushed)
        if self._popped:
            popped, self._popped = self._popped, 0
            stats.add("popped", popped)
        if self._dropped:
            dropped, self._dropped = self._dropped, 0
            stats.add("dropped", dropped)
        if self._max_seen > self._max_flushed:
            stats.add("max_depth", self._max_seen - self._max_flushed)
            self._max_flushed = self._max_seen

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
        if high > self._max_seen:
            self._max_seen = high
        return True

    def pop(self) -> Optional[FifoEntry]:
        """Remove and return the oldest event, or ``None`` when empty."""
        if not self._entries:
            return None
        self._popped += 1
        return self._entries.popleft()

    def __len__(self) -> int:
        return len(self._entries)
