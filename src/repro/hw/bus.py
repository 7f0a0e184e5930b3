"""The memory bus between the CPU (cache hierarchy) and main memory.

Every access that actually reaches DRAM is a :class:`BusTransaction`, and
every transaction is published to registered *snoopers* after completion.
The Hypernel MBM attaches here (paper Figure 5: "bus traffic snooper"),
as does the optional DMA engine used by the attack scenarios.

Transaction kinds
-----------------
``READ`` / ``WRITE``
    Single-word transfers, carrying the exact address and (for writes)
    value — what an uncached CPU access or a device access produces.
``LINE_FILL`` / ``WRITEBACK``
    Whole-cache-line transfers produced by the cache hierarchy.  A
    writeback does **not** carry per-word values: a bus monitor cannot
    reconstruct which words changed, which is precisely why Hypersec
    makes monitored pages non-cacheable (paper section 5.3).
``BLOCK_WRITE``
    A modelled stream of ``nwords`` sequential word writes whose
    individual values the simulation does not track (bulk data copies in
    workloads).  Snoopers are told the covered range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config import LINE_BYTES, WORD_BYTES
from repro.hw.clock import Clock
from repro.hw.dram import DramModel
from repro.hw.memory import PhysicalMemory
from repro.utils.stats import StatSet

LINE_WORDS = LINE_BYTES // WORD_BYTES


class TxnKind(enum.Enum):
    """Kind of bus transaction; see module docstring."""

    READ = "read"
    WRITE = "write"
    LINE_FILL = "line_fill"
    WRITEBACK = "writeback"
    BLOCK_WRITE = "block_write"


@dataclass(frozen=True)
class BusTransaction:
    """One completed transfer on the memory bus."""

    kind: TxnKind
    paddr: int
    #: Word value for ``WRITE``; ``None`` for all other kinds.
    value: Optional[int] = None
    #: Number of words covered (1 for word transfers, line/block size else).
    nwords: int = 1
    #: Who issued the transfer: ``"cpu"``, ``"mbm"``, ``"dma"``, ...
    initiator: str = "cpu"

    @property
    def is_write_like(self) -> bool:
        """True for any transaction that modifies memory."""
        return self.kind in (TxnKind.WRITE, TxnKind.WRITEBACK, TxnKind.BLOCK_WRITE)


Snooper = Callable[[BusTransaction], None]


class MemoryBus:
    """Mediates all DRAM traffic; charges timing; notifies snoopers."""

    def __init__(self, memory: PhysicalMemory, dram: DramModel, clock: Clock):
        self.memory = memory
        self.dram = dram
        self.clock = clock
        self._snoopers: List[Snooper] = []
        self._reads = 0
        self._writes = 0
        self._line_fills = 0
        self._writebacks = 0
        self._block_writes = 0
        self._block_words = 0
        self.stats = StatSet(
            "bus", self, "_reads", "_writes", "_line_fills", "_writebacks",
            "_block_writes", "_block_words",
        )

    # ------------------------------------------------------------------
    # Snooper management
    # ------------------------------------------------------------------
    def attach_snooper(self, snooper: Snooper) -> None:
        """Attach a snooper; it sees every subsequent transaction."""
        self._snoopers.append(snooper)

    def detach_snooper(self, snooper: Snooper) -> None:
        """Detach a previously attached snooper."""
        self._snoopers.remove(snooper)

    def _notify(self, txn: BusTransaction) -> None:
        for snooper in self._snoopers:
            snooper(txn)

    # ------------------------------------------------------------------
    # Word transfers
    # ------------------------------------------------------------------
    def read(self, paddr: int, initiator: str = "cpu", charge: bool = True) -> int:
        """Read one word from DRAM.

        ``charge=False`` lets off-critical-path agents (the MBM works in
        parallel with the CPU) account their latency separately instead
        of stalling the global clock.
        """
        cycles = self.dram.access_cycles(paddr)
        if charge:
            self.clock.advance(cycles)
        value = self.memory.read_word(paddr)
        self._reads += 1
        snoopers = self._snoopers
        if snoopers:
            txn = BusTransaction(TxnKind.READ, paddr, None, 1, initiator)
            for snooper in snoopers:
                snooper(txn)
        return value

    def write(
        self, paddr: int, value: int, initiator: str = "cpu", charge: bool = True
    ) -> None:
        """Write one word to DRAM; snoopers see the exact address/value."""
        cycles = self.dram.access_cycles(paddr)
        if charge:
            self.clock.advance(cycles)
        self.memory.write_word(paddr, value)
        self._writes += 1
        snoopers = self._snoopers
        if snoopers:
            txn = BusTransaction(TxnKind.WRITE, paddr, value, 1, initiator)
            for snooper in snoopers:
                snooper(txn)

    # ------------------------------------------------------------------
    # Line transfers (cache hierarchy)
    # ------------------------------------------------------------------
    def fill_line(self, line_paddr: int, initiator: str = "cpu") -> None:
        """Fetch one cache line from DRAM (timing + snoop only)."""
        self.clock.advance(self.dram.burst_cycles(line_paddr, LINE_WORDS))
        self._line_fills += 1
        if self._snoopers:
            self._notify(
                BusTransaction(
                    TxnKind.LINE_FILL, line_paddr, None, LINE_WORDS, initiator
                )
            )

    def writeback_line(self, line_paddr: int, initiator: str = "cpu") -> None:
        """Write one dirty line back to DRAM.

        Word values are not carried (see module docstring) — the backing
        store is already up to date because the cache models are
        timing-only.
        """
        self.clock.advance(self.dram.burst_cycles(line_paddr, LINE_WORDS))
        self._writebacks += 1
        if self._snoopers:
            self._notify(
                BusTransaction(
                    TxnKind.WRITEBACK, line_paddr, None, LINE_WORDS, initiator
                )
            )

    # ------------------------------------------------------------------
    # Bulk transfers (workload data streams)
    # ------------------------------------------------------------------
    def write_block(
        self, paddr: int, nwords: int, initiator: str = "cpu", charge: bool = True
    ) -> None:
        """Model a stream of ``nwords`` sequential word writes.

        Used for bulk data movement (file contents, page copies) where
        tracking individual values would add nothing: the range is
        reported to snoopers so the MBM can check it against its bitmap.
        """
        if nwords <= 0:
            return
        if charge:
            self.clock.advance(self.dram.burst_cycles(paddr, nwords))
        self._block_writes += 1
        self._block_words += nwords
        if self._snoopers:
            self._notify(
                BusTransaction(TxnKind.BLOCK_WRITE, paddr, None, nwords, initiator)
            )

    # ------------------------------------------------------------------
    # Backdoor access (no timing, no snoop) for loaders and checkers
    # ------------------------------------------------------------------
    def peek(self, paddr: int) -> int:
        """Read memory without timing or snooping (testing/loader use)."""
        return self.memory.read_word(paddr)

    def peek_words(self, paddr: int, nwords: int) -> List[int]:
        """Read ``nwords`` consecutive words like :meth:`peek`: no
        timing, no snooping."""
        return self.memory.read_words(paddr, nwords)

    def poke(self, paddr: int, value: int) -> None:
        """Write memory without timing or snooping (testing/loader use)."""
        self.memory.write_word(paddr, value)
