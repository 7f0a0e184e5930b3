"""RunMetrics: per-run component counters, gauges and integrity checks.

The MBM pipeline counts its losses (``mbm_fifo.dropped``,
``mbm_ring.overflow_drops``, ``mbm_decision.lost_events``) but a counter
nobody reads is a silent failure — exactly what the CaptureFifo
docstring warns must never happen.  :func:`collect_metrics` gathers
every component :class:`~repro.utils.stats.StatSet` on a system into
one serializable :class:`RunMetrics` report and turns the loss counters
into hard *integrity checks*: any non-zero value fails the run loudly
(:class:`~repro.errors.IntegrityError`).

Collection is read-only on the simulated machine: StatSet reads change
no component state and charge no cycles, and the ring-occupancy gauge
uses the bus backdoor (``peek``).  A run with metrics collection is
cycle-for-cycle identical to one without.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import IntegrityError
from repro.obs.profiler import attribute_cycles
from repro.utils.stats import StatSet

#: The integrity checks, as ``(component, counter, meaning)``.  Every
#: counter is an event-loss indicator: non-zero means the monitoring
#: pipeline missed writes and any detection count from the run is
#: suspect.  ``mbm_fifo.overrun`` is the sticky hardware flag (0 or 1);
#: the rest are exact drop counts at each pipeline stage.
INTEGRITY_CHECK_SPECS: Tuple[Tuple[str, str, str], ...] = (
    ("mbm_fifo", "overrun", "capture FIFO latched its sticky overrun flag"),
    ("mbm_fifo", "dropped", "events dropped at the capture FIFO"),
    ("mbm_ring", "overflow_drops", "events dropped by the full ring buffer"),
    ("mbm_decision", "lost_events",
     "detections the decision unit could not queue"),
    ("mbm", "writeback_hazards",
     "dirty-line writebacks covered monitored words (values unseen)"),
)


@dataclass
class IntegrityCheck:
    """One named zero-tolerance check over a component counter."""

    component: str
    counter: str
    value: int
    description: str = ""

    @property
    def name(self) -> str:
        """``component.counter`` — the name failures report."""
        return f"{self.component}.{self.counter}"

    @property
    def passed(self) -> bool:
        return self.value == 0

    def to_dict(self) -> dict:
        return {
            "component": self.component,
            "counter": self.counter,
            "value": self.value,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IntegrityCheck":
        return cls(
            component=str(data["component"]),
            counter=str(data["counter"]),
            value=int(data["value"]),
            description=str(data.get("description", "")),
        )


@dataclass
class RunMetrics:
    """Everything observable about one run, in one serializable report."""

    system: str
    sim_cycles: int
    components: Dict[str, Dict[str, int]] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    checks: List[IntegrityCheck] = field(default_factory=list)
    attribution: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when every integrity check passed."""
        return not self.failures

    @property
    def failures(self) -> List[IntegrityCheck]:
        return [check for check in self.checks if not check.passed]

    def check(self, name: str) -> IntegrityCheck:
        """The check called ``component.counter`` (KeyError if absent)."""
        for candidate in self.checks:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no integrity check named {name!r}")

    def counter(self, component: str, key: str) -> int:
        """One component counter (0 when absent)."""
        return self.components.get(component, {}).get(key, 0)

    # ------------------------------------------------------------------
    # Serialization (must stay JSON-clean and deterministic: these dicts
    # travel inside runner payloads through worker processes into the
    # content-addressed cache, where byte-identity across ``jobs``
    # settings is asserted by tests).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "sim_cycles": self.sim_cycles,
            "components": {
                name: dict(sorted(counters.items()))
                for name, counters in sorted(self.components.items())
            },
            "gauges": dict(sorted(self.gauges.items())),
            "checks": [check.to_dict() for check in self.checks],
            "attribution": dict(sorted(self.attribution.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunMetrics":
        """Rehydrate a report."""
        return cls(
            system=str(data["system"]),
            sim_cycles=int(data["sim_cycles"]),
            components={
                str(name): {str(k): int(v) for k, v in counters.items()}
                for name, counters in data.get("components", {}).items()
            },
            gauges={
                str(k): float(v) for k, v in data.get("gauges", {}).items()
            },
            checks=[
                IntegrityCheck.from_dict(item)
                for item in data.get("checks", [])
            ],
            attribution={
                str(k): int(v)
                for k, v in data.get("attribution", {}).items()
            },
        )

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Human-readable report (the ``python -m repro metrics`` body)."""
        lines = [
            f"run metrics — system {self.system!r}, "
            f"{self.sim_cycles} simulated cycles",
            "",
            "integrity checks:",
        ]
        if not self.checks:
            lines.append("  (none: system has no MBM attached)")
        for check in self.checks:
            status = "ok" if check.passed else "FAILED"
            lines.append(
                f"  [{status:>6s}] {check.name} = {check.value}"
                + (f"  ({check.description})" if not check.passed else "")
            )
        if self.gauges:
            lines += ["", "gauges:"]
            for key, value in sorted(self.gauges.items()):
                rendered = (
                    f"{value:.4f}" if isinstance(value, float)
                    and not value.is_integer() else f"{int(value)}"
                )
                lines.append(f"  {key:28s} {rendered}")
        if self.attribution:
            lines += ["", "cycle attribution:"]
            total = max(self.sim_cycles, 1)
            for key, cycles in sorted(
                self.attribution.items(), key=lambda kv: -kv[1]
            ):
                if key.startswith("mbm_busy"):
                    lines.append(f"  {key:28s} {cycles:>14d}  (off-path)")
                else:
                    lines.append(
                        f"  {key:28s} {cycles:>14d}  "
                        f"({cycles / total * 100:5.1f}%)"
                    )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
def component_stat_sets(system) -> List[StatSet]:
    """Every :class:`StatSet` on a system, in a fixed traversal order
    (hardware, then CPU/MMU, then kernel, then EL2 residents, then the
    MBM pipeline, then the security applications)."""
    platform = system.platform
    mmu = system.cpu.mmu
    sets: List[StatSet] = [
        platform.bus.stats,
        platform.dram.stats,
        platform.l1.stats,
        platform.l2.stats,
        platform.caches.stats,
        platform.gic.stats,
        system.cpu.stats,
        mmu.stats,
        mmu.tlb.stats,
        mmu.stage2_tlb.stats,
        system.kernel.stats,
    ]
    sets.append(system.kernel.sys.stats)
    if system.kvm is not None:
        sets.append(system.kvm.stats)
    if system.hypersec is not None:
        sets.append(system.hypersec.stats)
    mbm = system.mbm
    if mbm is not None:
        sets += [
            mbm.stats,
            mbm.snooper.stats,
            mbm.fifo.stats,
            mbm.translator.stats,
            mbm.bitmap_cache.stats,
            mbm.decision.stats,
            mbm.ring.stats,
        ]
    for app in system.monitors:
        sets.append(app.stats)
    return sets


def _mbm_gauges(system) -> Dict[str, float]:
    mbm = system.mbm
    gauges: Dict[str, float] = {}
    if mbm is None:
        return gauges
    fifo = mbm.fifo
    high_water = fifo.stats.get("max_depth")
    gauges["fifo_depth"] = float(fifo.depth)
    gauges["fifo_high_water"] = float(high_water)
    gauges["fifo_headroom"] = float(fifo.depth - high_water)
    ring = mbm.ring
    pending = ring.pending()  # bus backdoor peek: no timing, no snoop
    gauges["ring_entries"] = float(ring.entries)
    gauges["ring_pending"] = float(pending)
    gauges["ring_occupancy"] = pending / ring.entries
    cache_stats = mbm.bitmap_cache.stats
    lookups = cache_stats.get("hits") + cache_stats.get("misses")
    gauges["bitmap_cache_hit_rate"] = (
        cache_stats.get("hits") / lookups if lookups else 0.0
    )
    detections = mbm.events_detected
    gauges["irqs_per_detection"] = (
        mbm.stats.get("irqs_raised") / detections if detections else 0.0
    )
    gauges["events_detected"] = float(detections)
    gauges["events_lost"] = float(mbm.events_lost)
    gauges["mbm_busy_cycles"] = float(mbm.busy_cycles)
    return gauges


def collect_metrics(system) -> RunMetrics:
    """Snapshot every observable counter on ``system`` into a report.

    Read-only on the machine: no cycles are charged, no component state
    changes, so a run that collects metrics produces byte-identical
    tables to one that does not.
    """
    components = {
        stats.name: stats.snapshot() for stats in component_stat_sets(system)
    }
    checks: List[IntegrityCheck] = []
    if system.mbm is not None:
        for component, counter, description in INTEGRITY_CHECK_SPECS:
            value = components.get(component, {}).get(counter, 0)
            checks.append(
                IntegrityCheck(component, counter, value,
                               description=description)
            )
    attribution = attribute_cycles(system)
    return RunMetrics(
        system=system.name,
        sim_cycles=system.platform.clock.now,
        components=components,
        gauges=_mbm_gauges(system),
        checks=checks,
        attribution=attribution.as_flat_dict(),
    )


# ----------------------------------------------------------------------
# Payload-level enforcement (runner integration)
# ----------------------------------------------------------------------
def verify_payload_integrity(
    labels: Sequence[str], payloads: Sequence[dict]
) -> None:
    """Enforce the integrity checks carried in runner payloads.

    ``labels`` and ``payloads`` run in parallel (one label per cell).
    Raises :class:`IntegrityError` naming every cell whose report has a
    non-zero check, with the check, and every cell whose payload
    carries no ``"metrics"`` report at all (its losses are unknown).
    """
    problems: List[str] = []
    for label, payload in zip(labels, payloads):
        data = payload.get("metrics")
        if not isinstance(data, dict):
            problems.append(f"{label}: no metrics report")
            continue
        problems += [
            f"{label}: {check.name} = {check.value}"
            for check in RunMetrics.from_dict(data).failures
        ]
    if problems:
        raise IntegrityError(
            "run integrity check failed — the monitoring pipeline lost "
            "events or did not report: " + "; ".join(problems)
        )
