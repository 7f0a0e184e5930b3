"""The simulation clock.

A single global cycle counter shared by every component on a platform.
Components *charge* cycles for the events they model; workload drivers
read the clock before and after an operation to obtain its latency.

The clock also supports nested *charge scopes* used by the benchmark
layer to attribute cycles to a specific operation while the simulation
is running (e.g. "cycles spent inside fork()").
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator


class Clock:
    """Monotonic cycle counter with frequency-aware conversions."""

    def __init__(self, freq_hz: float = 1.15e9):
        if freq_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {freq_hz}")
        self.freq_hz = freq_hz
        self._cycles = 0
        #: Cycles accumulated per charge-scope label (observer-side
        #: bookkeeping, not machine state).
        self.attribution: Dict[str, int] = {}

    @property
    def now(self) -> int:
        """Current cycle count."""
        return self._cycles

    def advance(self, cycles: int) -> None:
        """Charge ``cycles`` to the global counter.

        Negative charges are rejected: time does not run backwards.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance clock by negative cycles: {cycles}")
        self._cycles += cycles

    def elapsed_since(self, start: int) -> int:
        """Cycles elapsed since a previously captured ``now`` value."""
        return self._cycles - start

    @contextmanager
    def scope(self, label: str) -> Iterator[None]:
        """Attribute cycles charged inside the ``with`` block to ``label``.

        Zero-cost for the simulation itself: the block's charges advance
        the global counter exactly as they would outside the scope; the
        elapsed delta is added to :attr:`attribution` on exit.  Scopes
        may nest, in which case the inner delta is (deliberately)
        counted under both labels — callers picking disjoint labels get
        disjoint buckets.
        """
        start = self._cycles
        try:
            yield
        finally:
            delta = self._cycles - start
            if delta:
                self.attribution[label] = self.attribution.get(label, 0) + delta

    def to_us(self, cycles: int) -> float:
        """Convert a cycle count to microseconds at this clock's frequency."""
        return cycles / self.freq_hz * 1e6

    def to_seconds(self, cycles: int) -> float:
        """Convert a cycle count to seconds at this clock's frequency."""
        return cycles / self.freq_hz

    def __repr__(self) -> str:
        return f"Clock({self._cycles} cycles @ {self.freq_hz / 1e9:.2f} GHz)"
