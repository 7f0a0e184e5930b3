"""GIC-like interrupt controller.

The simulation is synchronous, so an unmasked interrupt is dispatched
immediately when raised: the registered handler runs inline (charging
whatever cycles it models).  If a line is masked, or a handler for the
same line is already in service, the interrupt is *pended* and delivered
when the line is unmasked / the handler returns — matching level-style
behaviour closely enough for the MBM's notification path.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import ConfigurationError
from repro.utils.stats import StatSet

Handler = Callable[[int], None]


class InterruptController:
    """Registers IRQ lines and dispatches them to handlers."""

    def __init__(self):
        self._handlers: Dict[int, Handler] = {}
        self._masked: Dict[int, bool] = {}
        self._pending: Dict[int, int] = {}
        self._in_service: Dict[int, bool] = {}
        self.stats = StatSet("gic")

    def register(self, irq: int, handler: Handler) -> None:
        """Install ``handler`` for IRQ line ``irq`` (one handler per line)."""
        if irq in self._handlers:
            raise ConfigurationError(f"IRQ {irq} already has a handler")
        self._handlers[irq] = handler
        self._masked[irq] = False
        self._pending[irq] = 0
        self._in_service[irq] = False

    def mask(self, irq: int) -> None:
        """Mask a line; raised interrupts accumulate as pending."""
        self._require(irq)
        self._masked[irq] = True

    def unmask(self, irq: int) -> None:
        """Unmask a line, delivering anything that pended while masked."""
        self._require(irq)
        self._masked[irq] = False
        self._drain(irq)

    def raise_irq(self, irq: int) -> None:
        """Assert IRQ line ``irq``."""
        self._require(irq)
        self.stats.add("raised")
        self._pending[irq] += 1
        self._drain(irq)

    def pending(self, irq: int) -> int:
        """Number of undelivered assertions on the line."""
        self._require(irq)
        return self._pending[irq]

    # ------------------------------------------------------------------
    def _require(self, irq: int) -> None:
        if irq not in self._handlers:
            raise ConfigurationError(f"IRQ {irq} has no registered handler")

    def _drain(self, irq: int) -> None:
        if self._masked[irq] or self._in_service[irq]:
            return
        handler = self._handlers[irq]
        while self._pending[irq] > 0 and not self._masked[irq]:
            self._pending[irq] -= 1
            self._in_service[irq] = True
            try:
                self.stats.add("dispatched")
                handler(irq)
            finally:
                self._in_service[irq] = False
