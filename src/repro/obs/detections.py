"""MBM detection trace: every monitored-write hit, as it happens.

:class:`DetectionTrace` observes the MBM detection path through the
decision unit's ``on_hit`` hook and records each hit with its cycle
stamp and whether the ring buffer actually queued it.
"""

from __future__ import annotations

from typing import List, Optional


class DetectionTrace:
    """Record every MBM detection through ``DecisionUnit.on_hit``.

    The hook fires once per monitored-write hit with the event address,
    value (``None`` for block-modelled streams) and whether the ring
    buffer queued it — a dropped event shows up here with
    ``"queued": False`` even though it never reached Hypersec, which is
    what makes loss debuggable.  Attaching costs one attribute store;
    each recorded hit is one dict append (no simulated cycles).

    ::

        with DetectionTrace(system.mbm) as trace:
            ... run workload ...
        lost = [hit for hit in trace.records if not hit["queued"]]
    """

    def __init__(self, mbm, capacity: int = 100_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.mbm = mbm
        self.capacity = capacity
        self.records: List[dict] = []
        self.dropped = 0
        self._clock = mbm.platform.clock
        self._attached = False

    def attach(self) -> "DetectionTrace":
        if self.mbm.decision.on_hit is not None:
            raise ValueError("decision unit already has an on_hit observer")
        self.mbm.decision.on_hit = self._record
        self._attached = True
        return self

    def detach(self) -> "DetectionTrace":
        if self._attached:
            self.mbm.decision.on_hit = None
            self._attached = False
        return self

    def __enter__(self) -> "DetectionTrace":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    def _record(self, paddr: int, value: Optional[int], queued: bool) -> None:
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(
            {
                "cycle": self._clock.now,
                "paddr": paddr,
                "value": value,
                "queued": queued,
            }
        )

    def __len__(self) -> int:
        return len(self.records)
