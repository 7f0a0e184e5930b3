"""A minimal synchronous publish/subscribe hook.

Hardware models expose :class:`EventHook` instances (e.g. the memory bus
publishes each transaction; the MBM publishes each detection) so that
monitors, statistics collectors and tests can observe behaviour without
the models knowing about their observers.

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
