"""The MBM's output ring buffer.

Paper section 5.3: on a bitmap hit, "the MBM records the information of
the event (address, value) in a ring buffer and raises an interrupt to
notify Hypersec."  The ring lives in the secure region, so the kernel
cannot tamper with queued events.

Layout in secure memory (all 64-bit words)::

    +0      head (producer index, written by the MBM)
    +8      tail (consumer index, written by Hypersec)
    +16     entry[0].addr,  entry[0].value
    +32     entry[1].addr,  entry[1].value
    ...

The producer (MBM) writes with unstalling device stores; the consumer
(Hypersec) reads with uncached loads — both charged to their own agent.

Head and tail are free-running indices wrapped at ``2 * entries`` (the
classic power-of-two ring trick): the extra bit disambiguates full from
empty, and the stored index values stay bounded, so a quiescent ring
returns to an identical memory image instead of carrying an
ever-growing producer count.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import WORD_BYTES
from repro.errors import ProtocolError
from repro.hw.bus import MemoryBus
from repro.utils.stats import StatSet

_HEADER_WORDS = 2
_ENTRY_WORDS = 2


class EventRingBuffer:
    """A producer/consumer ring of (address, value) event records."""

    def __init__(self, bus: MemoryBus, base_paddr: int, entries: int = 1024):
        if entries <= 1:
            raise ProtocolError("ring needs at least two entries")
        self.bus = bus
        self.base = base_paddr
        self.entries = entries
        self.stats = StatSet("mbm_ring")
        self.stats.flush_hook = self._flush_pending
        self._produced = 0  # batched hot-path counter (see StatSet docs)
        # Reset indices in memory (device initialization).
        bus.poke(self.base, 0)
        bus.poke(self.base + WORD_BYTES, 0)

    def _flush_pending(self) -> None:
        if self._produced:
            produced, self._produced = self._produced, 0
            self.stats.add("produced", produced)

    @property
    def size_bytes(self) -> int:
        return (_HEADER_WORDS + self.entries * _ENTRY_WORDS) * WORD_BYTES

    def _entry_addr(self, index: int) -> int:
        return self.base + (_HEADER_WORDS + (index % self.entries) * _ENTRY_WORDS) * WORD_BYTES

    # ------------------------------------------------------------------
    # Producer side (the MBM decision unit)
    # ------------------------------------------------------------------
    def produce(self, addr: int, value: Optional[int]) -> bool:
        """Record one event; returns False when the ring is full.

        The MBM's stores do not stall the CPU (charge=False) but are
        real bus transactions into the secure region.
        """
        bus = self.bus
        base = self.base
        wrap = 2 * self.entries
        head = bus.peek(base)
        tail = bus.peek(base + WORD_BYTES)
        if (head - tail) % wrap >= self.entries:
            self.stats.add("overflow_drops")
            return False
        entry = self._entry_addr(head)
        bus.write(entry, addr, initiator="mbm", charge=False)
        bus.write(
            entry + WORD_BYTES,
            value if value is not None else (1 << 64) - 1,
            initiator="mbm",
            charge=False,
        )
        bus.write(base, (head + 1) % wrap, initiator="mbm", charge=False)
        self._produced += 1
        return True

    # ------------------------------------------------------------------
    # Consumer side (Hypersec's interrupt handler)
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Events waiting (backdoor peek for tests/stats)."""
        head = self.bus.peek(self.base)
        tail = self.bus.peek(self.base + WORD_BYTES)
        return (head - tail) % (2 * self.entries)

    def consume_all(self, reader=None, writer=None) -> List[Tuple[int, int]]:
        """Drain every queued event with uncached (device) reads.

        ``reader`` is a callable performing a charged uncached read for
        the consuming agent; it defaults to charged bus reads.
        ``writer`` is the matching charged store used for the tail
        write-back — a consumer that supplies its own ``reader`` must
        supply the consistent ``writer``, or its one store per drain is
        silently charged (and attributed on the bus) as a plain CPU
        write.  Both default to raw bus accesses, preserving the
        reader-less behaviour.
        """
        if reader is None:
            reader = lambda paddr: self.bus.read(paddr)  # noqa: E731
        if writer is None:
            writer = lambda paddr, value: self.bus.write(paddr, value)  # noqa: E731
        events: List[Tuple[int, int]] = []
        wrap = 2 * self.entries
        head = reader(self.base)
        tail = reader(self.base + WORD_BYTES)
        occupancy = (head - tail) % wrap
        if occupancy > self.entries:
            raise ProtocolError("ring tail ran past head")
        for _ in range(occupancy):
            entry = self._entry_addr(tail)
            addr = reader(entry)
            value = reader(entry + WORD_BYTES)
            events.append((addr, value))
            tail = (tail + 1) % wrap
        writer(self.base + WORD_BYTES, tail)
        self.stats.add("consumed", len(events))
        return events
