"""Unified observability layer (DESIGN.md section 5e).

Three pieces, all strictly read-only with respect to the simulated
machine (collection never advances the clock or mutates component
state, so results are byte-identical with or without it):

* :mod:`repro.obs.metrics` — :class:`RunMetrics`: every component
  :class:`~repro.utils.stats.StatSet`, derived gauges (FIFO high-water
  vs depth, ring occupancy, bitmap-cache hit rate, IRQs per detection)
  and hard *integrity checks* that make silent event loss in the MBM
  pipeline fail a run loudly unless explicitly waived.
* :mod:`repro.obs.profiler` — cycle attribution: splits ``sim_cycles``
  into exactly-recoverable fixed-cost buckets (stage-1 vs stage-2 walk
  descriptors, hypercall/trap round trips, world switches, ...) plus
  the MBM's off-critical-path occupancy.
* :mod:`repro.obs.export` — machine-readable JSONL export for
  :class:`~repro.tools.trace.BusTracer` traces, MBM detection streams
  and metric reports.
"""

from repro.obs.export import (
    DetectionTrace,
    bus_trace_records,
    jsonl_dumps,
    metrics_records,
    write_jsonl,
)
from repro.obs.metrics import (
    INTEGRITY_CHECK_SPECS,
    IntegrityCheck,
    RunMetrics,
    collect_metrics,
    verify_payload_integrity,
)
from repro.obs.profiler import CycleAttribution, attribute_cycles

__all__ = [
    "CycleAttribution",
    "DetectionTrace",
    "INTEGRITY_CHECK_SPECS",
    "IntegrityCheck",
    "RunMetrics",
    "attribute_cycles",
    "bus_trace_records",
    "collect_metrics",
    "jsonl_dumps",
    "metrics_records",
    "verify_payload_integrity",
    "write_jsonl",
]
