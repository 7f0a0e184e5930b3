"""Cycle-attribution profiler: split ``sim_cycles`` by agent and cause.

The simulator charges two kinds of cycles: *fixed-cost* events (a
privilege transition always charges the same CostModel constant) and
*variable-cost* memory traffic (cache hits vs DRAM row state).  The
fixed-cost categories are exactly recoverable after the fact as
``counter x constant`` — the component that counted the event and the
constant it charged are both known — so the profiler reconstructs them
without touching the hot path at all.  Whatever it cannot pin down
(memory traffic, modelled straight-line compute, calibrated op costs)
stays in an explicit ``residual`` bucket rather than being smeared over
the named ones.

Two complements:

* The MBM's occupancy (``mbm_busy_cycles``) is reported separately —
  the monitor runs off the CPU's critical path, so its cycles are not
  part of the global clock and must not be subtracted from it.
* :meth:`repro.hw.clock.Clock.scope` charge scopes measure *elapsed*
  cycles under a label while the simulation runs (e.g. "inside
  fork()"); :func:`attribute_cycles` folds any accumulated scopes into
  the report under ``scope:<label>`` keys.  Scopes overlap the derived
  buckets, so they are excluded from the residual computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class CycleAttribution:
    """``sim_cycles`` split into exactly-derived buckets + residual."""

    total: int
    #: Fixed-cost buckets recovered as ``counter x CostModel constant``;
    #: disjoint by construction (each models a distinct charge site).
    buckets: Dict[str, int] = field(default_factory=dict)
    #: ``total - sum(buckets)``: memory traffic, modelled compute and
    #: calibrated per-op costs the profiler does not itemize.
    residual: int = 0
    #: Clock charge-scope measurements (may overlap the buckets).
    scopes: Dict[str, int] = field(default_factory=dict)
    #: MBM occupancy — off the critical path, not part of ``total``.
    mbm_busy_cycles: int = 0

    def as_flat_dict(self) -> Dict[str, int]:
        """One flat, JSON-clean mapping (RunMetrics.attribution form)."""
        flat = dict(self.buckets)
        flat["residual"] = self.residual
        flat["mbm_busy_cycles"] = self.mbm_busy_cycles
        for label, cycles in self.scopes.items():
            flat[f"scope:{label}"] = cycles
        return flat

    def fraction(self, bucket: str) -> float:
        """A bucket's share of the total (0.0 on an empty clock)."""
        if self.total == 0:
            return 0.0
        return self.buckets.get(bucket, 0) / self.total


def attribute_cycles(system) -> CycleAttribution:
    """Derive the cycle split for one system from its counters.

    Read-only: only StatSet reads and arithmetic — safe to call
    mid-run, repeatedly, and from metrics collection without perturbing
    cycle accounting.
    """
    platform = system.platform
    costs = platform.config.costs
    cpu = system.cpu.stats
    mmu = system.cpu.mmu.stats
    total = platform.clock.now

    buckets: Dict[str, int] = {
        # Per-descriptor control overhead of the table walkers; the
        # descriptor *fetches* themselves are memory traffic (residual).
        "stage1_walk_descriptors":
            mmu.get("stage1_desc_fetches") * costs.walk_step_overhead,
        "stage2_walk_descriptors":
            mmu.get("stage2_desc_fetches") * costs.walk_step_overhead,
        # EL1 -> EL2 round trips: hypercalls and TVM-trapped MSRs.
        "hypercall_round_trips":
            cpu.get("hvc") * (costs.hvc_entry + costs.hvc_exit),
        "trapped_msr_round_trips":
            cpu.get("trapped_msr") * (costs.trap_entry + costs.trap_exit),
        # Guest exit/re-entry pairs (KVM world switches).
        "world_switches":
            cpu.get("vm_exits") * (costs.vm_exit + costs.vm_enter),
        # Asynchronous interrupt takes (the MBM notification path).
        "irq_transitions":
            platform.gic.stats.get("raised")
            * (costs.irq_entry + costs.irq_exit),
    }
    if system.kernel.sys is not None:
        buckets["syscall_transitions"] = (
            system.kernel.sys.stats.get("total")
            * (costs.svc_entry + costs.svc_exit)
        )
    if system.kvm is not None:
        buckets["stage2_fault_service"] = (
            system.kvm.stats.get("stage2_faults")
            * costs.stage2_fault_handling
        )
    if system.hypersec is not None:
        buckets["hypersec_event_dispatch"] = (
            system.hypersec.stats.get("mbm_events_dispatched")
            * costs.hypersec_irq_dispatch
        )
    residual = total - sum(buckets.values())
    return CycleAttribution(
        total=total,
        buckets=buckets,
        residual=residual,
        scopes=dict(platform.clock.attribution),
        mbm_busy_cycles=(
            system.mbm.busy_cycles if system.mbm is not None else 0
        ),
    )
