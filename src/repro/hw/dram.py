"""DRAM timing model with per-bank open-row tracking.

A deliberately small model: the physical address is decomposed into
(bank, row); an access to the currently open row of its bank costs the
row-hit latency, anything else costs the row-miss latency and opens the
row.  This is enough to make spatially local traffic (page-table walks
within one table, MBM bitmap bursts) cheaper than scattered traffic,
which is the only DRAM property the reproduced experiments depend on.
"""

from __future__ import annotations

from typing import Dict

from repro.config import CostModel
from repro.utils.stats import StatSet


class DramModel:
    """Open-row DRAM latency model."""

    def __init__(self, costs: CostModel, banks: int = 8, row_bytes: int = 8192):
        if banks <= 0 or row_bytes <= 0:
            raise ValueError("banks and row_bytes must be positive")
        self._costs = costs
        self._banks = banks
        self._row_bytes = row_bytes
        self._open_rows: Dict[int, int] = {}
        self._row_hits = 0
        self._row_misses = 0
        self._burst_words = 0
        self.stats = StatSet("dram")
        self.stats.flush_hook = self._flush_pending

    def _flush_pending(self) -> None:
        if self._row_hits:
            hits, self._row_hits = self._row_hits, 0
            self.stats.add("row_hits", hits)
        if self._row_misses:
            misses, self._row_misses = self._row_misses, 0
            self.stats.add("row_misses", misses)
        if self._burst_words:
            words, self._burst_words = self._burst_words, 0
            self.stats.add("burst_words", words)

    def _decompose(self, paddr: int) -> tuple[int, int]:
        row = paddr // self._row_bytes
        bank = row % self._banks
        return bank, row

    def access_cycles(self, paddr: int) -> int:
        """Latency in cycles for one access at ``paddr``; updates row state."""
        row = paddr // self._row_bytes
        bank = row % self._banks
        open_rows = self._open_rows
        if open_rows.get(bank) == row:
            self._row_hits += 1
            return self._costs.dram_row_hit
        open_rows[bank] = row
        self._row_misses += 1
        return self._costs.dram_row_miss

    def burst_cycles(self, paddr: int, nwords: int) -> int:
        """Latency for a burst of ``nwords`` sequential words.

        The first beat pays the full access latency; subsequent beats in
        the same row stream at one cycle per word.
        """
        if nwords <= 0:
            return 0
        total = self.access_cycles(paddr)
        total += nwords - 1
        self._burst_words += nwords
        return total

    def reset(self) -> None:
        """Close all rows (e.g. across benchmark iterations)."""
        self._open_rows.clear()
