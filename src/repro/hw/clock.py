"""The simulation clock.

A single global cycle counter shared by every component on a platform.
Components *charge* cycles for the events they model; workload drivers
read the clock before and after an operation to obtain its latency.
"""

from __future__ import annotations


class Clock:
    """Monotonic cycle counter at a fixed frequency."""

    def __init__(self, freq_hz: float = 1.15e9):
        if freq_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {freq_hz}")
        self.freq_hz = freq_hz
        self._cycles = 0

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

    def __repr__(self) -> str:
        return f"Clock({self._cycles} cycles @ {self.freq_hz / 1e9:.2f} GHz)"
