"""Lightweight statistics counters shared by all simulated components.

Every hardware and software model owns a :class:`StatSet`; counters are
created lazily on first increment so the models stay uncluttered.  The
benchmark harness and tests read them to assert on event counts (e.g.
"how many MBM interrupts fired", "how many descriptor fetches did the
nested walk perform").

Hot-path components keep their most frequent counters as plain integer
attributes and register a ``flush_hook`` that folds the pending values
into the ``StatSet`` the moment anybody *reads* it.  Readers therefore
always see exact totals while the per-event cost on the owner's hot path
is a single integer add.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple


class StatSet:
    """A named bag of integer counters."""

    __slots__ = ("name", "_counters", "flush_hook")

    def __init__(self, name: str):
        self.name = name
        self._counters: Dict[str, int] = {}
        #: Optional callable invoked before any read; owners use it to
        #: fold deferred (batched) increments into the counters.
        self.flush_hook: Optional[Callable[[], None]] = None

    def add(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        counters = self._counters
        try:
            counters[key] += amount
        except KeyError:
            counters[key] = amount

    def _flush(self) -> None:
        hook = self.flush_hook
        if hook is not None:
            hook()

    def get(self, key: str) -> int:
        """Current value of ``key`` (0 if never incremented)."""
        self._flush()
        return self._counters.get(key, 0)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters."""
        self._flush()
        return dict(self._counters)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        self._flush()
        return iter(sorted(self._counters.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self)
        return f"StatSet({self.name}: {body})"

