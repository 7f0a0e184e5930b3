"""Lightweight statistics counters shared by all simulated components.

Every hardware and software model owns a :class:`StatSet`; counters are
created lazily on first increment so the models stay uncluttered.  The
benchmark harness and tests read them to assert on event counts (e.g.
"how many MBM interrupts fired", "how many descriptor fetches did the
nested walk perform").

Hot-path components count their most frequent events in plain integer
attributes of their own and name those attributes when they create the
``StatSet``: ``StatSet("bus", self, "_reads", "_writes")`` reports the
owner's ``_reads`` as ``reads``.  Every read adds each attribute's
current value to the stored counter of the same key, so readers see
exact totals, the owner's per-event cost is a single integer add, and
reading changes nothing on the owner.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


class StatSet:
    """A named bag of integer counters, some of them live attributes of
    an owner object."""

    __slots__ = ("name", "_counters", "_owner", "_owned")

    def __init__(self, name: str, owner: object = None, *attrs: str):
        self.name = name
        self._counters: Dict[str, int] = {}
        self._owner = owner
        #: counter key -> owner attribute; the key drops leading "_".
        self._owned: Dict[str, str] = {attr.lstrip("_"): attr for attr in attrs}

    def add(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        counters = self._counters
        try:
            counters[key] += amount
        except KeyError:
            counters[key] = amount

    def get(self, key: str) -> int:
        """Current value of ``key`` (0 if never incremented)."""
        value = self._counters.get(key, 0)
        attr = self._owned.get(key)
        if attr is not None:
            value += getattr(self._owner, attr)
        return value

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all non-zero owner counters and every
        stored one."""
        counters = dict(self._counters)
        owner = self._owner
        for key, attr in self._owned.items():
            value = getattr(owner, attr)
            if value:
                counters[key] = counters.get(key, 0) + value
        return counters

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self.snapshot().items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self)
        return f"StatSet({self.name}: {body})"
