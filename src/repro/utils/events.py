"""A minimal synchronous publish/subscribe hook.

Models expose :class:`EventHook` instances (e.g. the MBM's tamper alert,
Hypersec's alerts, the kernel's object allocation and free) so that
monitors, statistics collectors and tests can observe behaviour without
the models knowing about their observers.  The two hottest signals do
not use it: the memory bus calls its snooper list directly, and the
MBM's decision unit reports detections through its plain ``on_hit``
attribute.

Dispatch is synchronous and in subscription order, which matches the
"combinational fan-out" nature of the signals being modelled.
"""

from __future__ import annotations

from typing import Any, Callable, List


class EventHook:
    """An ordered list of callbacks fired synchronously on :meth:`fire`."""

    def __init__(self, name: str):
        self.name = name
        self._subscribers: List[Callable[..., Any]] = []

    def subscribe(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """Register ``callback``; returns it so this can decorate."""
        self._subscribers.append(callback)
        return callback

    def fire(self, *args: Any, **kwargs: Any) -> None:
        """Invoke every subscriber with the given arguments."""
        for callback in list(self._subscribers):
            callback(*args, **kwargs)

    def __len__(self) -> int:
        return len(self._subscribers)

    def __repr__(self) -> str:
        return f"EventHook({self.name}, {len(self)} subscribers)"
