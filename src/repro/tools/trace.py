"""Bus tracing: record filtered memory traffic with timestamps.

A :class:`BusTracer` is a logic-analyzer-style snooper: attach it to a
platform's bus, optionally filter by physical range / transaction kind /
initiator, and it records timestamped transactions into a bounded
buffer.  Used for debugging monitors and for the examples' narratives
("show me every write the exploit made").

::

    tracer = BusTracer(platform, base=cred_pa, size=CRED.size_bytes)
    tracer.start()
    ... run workload ...
    tracer.stop()
    print(tracer.to_text())
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.config import PAGE_BYTES, WORD_BYTES
from repro.hw.bus import BusTransaction, TxnKind
from repro.hw.platform import Platform
from repro.utils.bitops import align_down


@dataclass(frozen=True)
class TraceRecord:
    """One captured transaction, with its capture time."""

    cycle: int
    kind: str
    paddr: int
    value: Optional[int]
    nwords: int
    initiator: str

    def covers(self, paddr: int) -> bool:
        """Whether this transaction's span includes the word at ``paddr``.

        Single-word records cover exactly their own address; line and
        block transfers cover ``nwords`` consecutive words.
        """
        return self.paddr <= paddr < self.paddr + self.nwords * WORD_BYTES

    def __str__(self) -> str:
        value = "-" if self.value is None else f"{self.value:#x}"
        return (f"@{self.cycle:>12d}  {self.kind:<11s} {self.paddr:#014x} "
                f"x{self.nwords:<4d} {value:<18s} [{self.initiator}]")


class BusTracer:
    """Bounded, filtered recorder of bus transactions."""

    def __init__(
        self,
        platform: Platform,
        base: int = 0,
        size: Optional[int] = None,
        kinds: Optional[Iterable[TxnKind]] = None,
        initiators: Optional[Iterable[str]] = None,
        capacity: int = 10_000,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.platform = platform
        self.base = base
        self.limit = base + size if size is not None else None
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.initiators = frozenset(initiators) if initiators is not None else None
        self.capacity = capacity
        self.records: List[TraceRecord] = []
        self.dropped = 0
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> "BusTracer":
        if not self._running:
            self.platform.bus.attach_snooper(self._snoop)
            self._running = True
        return self

    def stop(self) -> "BusTracer":
        if self._running:
            self.platform.bus.detach_snooper(self._snoop)
            self._running = False
        return self

    def __enter__(self) -> "BusTracer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    def _matches(self, txn: BusTransaction) -> bool:
        if self.kinds is not None and txn.kind not in self.kinds:
            return False
        if self.initiators is not None and txn.initiator not in self.initiators:
            return False
        if self.limit is not None:
            end = txn.paddr + txn.nwords * WORD_BYTES
            if txn.paddr >= self.limit or end <= self.base:
                return False
        return True

    def _snoop(self, txn: BusTransaction) -> None:
        if not self._matches(txn):
            return
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(
            TraceRecord(
                cycle=self.platform.clock.now,
                kind=txn.kind.value,
                paddr=txn.paddr,
                value=txn.value,
                nwords=txn.nwords,
                initiator=txn.initiator,
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def to_text(self, last: Optional[int] = None) -> str:
        """The trace as text, optionally only the ``last`` records.

        Over-capacity transactions are counted, not recorded; the text
        ends with a ``(+N dropped)`` suffix when any were lost.
        """
        records = self.records if last is None else self.records[-last:]
        lines = [str(record) for record in records]
        if self.dropped:
            lines.append(f"(+{self.dropped} dropped)")
        return "\n".join(lines) if lines else "(no transactions captured)"

    def summary(self) -> dict:
        """Aggregate statistics over the captured trace.

        Page buckets are span-aware: a multi-word transfer counts in
        every page its ``nwords`` span touches, not just the first.
        """
        kinds = Counter(record.kind for record in self.records)
        initiators = Counter(record.initiator for record in self.records)
        pages: Counter = Counter()
        for record in self.records:
            first = align_down(record.paddr, PAGE_BYTES)
            last = align_down(
                record.paddr + (record.nwords - 1) * WORD_BYTES, PAGE_BYTES
            )
            for page in range(first, last + PAGE_BYTES, PAGE_BYTES):
                pages[page] += 1
        return {
            "records": len(self.records),
            "dropped": self.dropped,
            "by_kind": dict(kinds),
            "by_initiator": dict(initiators),
            "hot_pages": [f"{page:#x}" for page, _ in pages.most_common(5)],
        }

    #: Write-like transaction kinds (mirrors BusTransaction.is_write_like).
    _WRITE_KINDS = frozenset(
        kind.value
        for kind in (TxnKind.WRITE, TxnKind.BLOCK_WRITE, TxnKind.WRITEBACK)
    )

    def writes_to(self, paddr: int) -> List[TraceRecord]:
        """All captured write-like transactions covering the word at
        ``paddr``: exact word writes plus multi-word ``BLOCK_WRITE`` /
        ``WRITEBACK`` transfers whose ``nwords`` span includes it
        (the same overlap rule :meth:`_matches` applies to filters)."""
        return [
            record
            for record in self.records
            if record.kind in self._WRITE_KINDS and record.covers(paddr)
        ]

    def __len__(self) -> int:
        return len(self.records)
