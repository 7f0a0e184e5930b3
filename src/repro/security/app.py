"""The security-application interface.

Applications run in Hypernel's secure space (isolated from the kernel)
and are identified by a SID (paper 5.3).  They declare *region
templates* — which byte ranges of which kernel object types they want
monitored — and receive the MBM's (address, value) events from Hypersec.

Integrity checking follows the shadow-state approach of event-triggered
monitors like KI-Mon: the application tracks the expected value of every
monitored word (seeded at registration, advanced by announced
kernel-code updates) and flags any observed write that does not match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from collections import deque

from repro.kernel.objects import ObjectLayout
from repro.utils.stats import StatSet

#: sentinel event value for writes whose data the MBM could not decode
#: (block-modelled streams).
VALUE_UNKNOWN = (1 << 64) - 1


@dataclass(frozen=True)
class Alert:
    """One integrity violation detected by an application."""

    app: str
    addr: int
    observed: Optional[int]
    expected: Optional[int]
    reason: str


@dataclass
class RegionTemplate:
    """Byte ranges to monitor per object of one layout."""

    layout_name: str
    #: ``"sensitive"`` = the layout's sensitive fields,
    #: ``"whole"`` = the entire object (page-granularity estimator).
    coverage: str = "sensitive"


class SecurityApp:
    """Base class for monitors hosted on Hypernel."""

    def __init__(self, name: str, templates: List[RegionTemplate]):
        self.name = name
        self.templates: Dict[str, RegionTemplate] = {
            t.layout_name: t for t in templates
        }
        self.sid: Optional[int] = None  # assigned by Hypersec
        self.alerts: List[Alert] = []
        self.stats = StatSet(f"app.{name}")
        self._shadow: Dict[int, int] = {}
        #: per-word FIFO of announced-but-not-yet-observed write values.
        #: Every write to a monitored (non-cacheable) word produces
        #: exactly one bus event in program order, so announced writes
        #: and MBM events pair up lockstep — even when interrupt
        #: coalescing delays delivery.
        self._pending: Dict[int, deque] = {}

    # ------------------------------------------------------------------
    # Region templates (queried by the kernel hook stub)
    # ------------------------------------------------------------------
    def wants(self, layout: ObjectLayout) -> bool:
        return layout.name in self.templates

    def regions_for(self, layout: ObjectLayout, obj_paddr: int) -> List[Tuple[int, int]]:
        """(base_paddr, size) ranges to register for one object."""
        template = self.templates[layout.name]
        if template.coverage == "whole":
            return [layout.whole_range(obj_paddr)]
        return layout.sensitive_ranges(obj_paddr)

    # ------------------------------------------------------------------
    # Shadow-state integrity tracking
    # ------------------------------------------------------------------
    def on_region_registered(self, base: int, size: int, snapshot: List[int]) -> None:
        """Seed the shadow with the region's current words."""
        for i, value in enumerate(snapshot):
            addr = base + i * 8
            self._shadow[addr] = value
            self._pending[addr] = deque()

    def on_region_unregistered(self, base: int, size: int) -> None:
        for addr in range(base, base + size, 8):
            self._shadow.pop(addr, None)
            self._pending.pop(addr, None)

    def on_authorized(self, addr: int, value: int) -> None:
        """A kernel code path announced a legitimate update."""
        if addr in self._shadow:
            self._shadow[addr] = value
            self._pending[addr].append(value)
            self.stats.add("authorized_updates")

    def _consume_event(self, addr: int, value: int) -> bool:
        """Match one MBM event against the announced-write queue.

        Returns True when the event corresponds to an announced write.
        Tolerates lost events (ring overflow) by consuming through the
        queue to a later matching announcement.
        """
        queue = self._pending.get(addr)
        if queue is None:
            return False
        if value == VALUE_UNKNOWN:
            # Undecodable value: pair with the oldest pending write.
            if queue:
                queue.popleft()
            return True
        if queue and queue[0] == value:
            queue.popleft()
            return True
        if value in queue:
            while queue and queue[0] != value:
                queue.popleft()
                self.stats.add("skipped_events")
            if queue:
                queue.popleft()
            return True
        return False

    def on_event(self, addr: int, value: int) -> None:
        """One MBM detection routed to this application by Hypersec.

        The event is legitimate iff it pairs with an announced kernel
        write of the same value (lockstep, see ``_pending``).
        """
        self.stats.add("events")
        if addr not in self._shadow:
            # Monitored but never snapshotted (e.g. whole-object
            # estimator): count only.
            return
        if not self._consume_event(addr, value):
            self.alert(addr, observed=value,
                       expected=self._shadow.get(addr),
                       reason="unauthorized modification")
            # Track the observed value so one attack raises one alert.
            self._shadow[addr] = value
            self._pending[addr].append(value)

    def alert(self, addr: int, observed: Optional[int],
              expected: Optional[int], reason: str) -> None:
        self.stats.add("alerts")
        self.alerts.append(Alert(self.name, addr, observed, expected, reason))

    @property
    def event_count(self) -> int:
        """Events delivered to this app (a Table 2 cell)."""
        return self.stats.get("events")
