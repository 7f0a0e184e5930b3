"""Differential gate: the live auditor vs the snapshot checker.

Both verification channels state the same invariants
(:mod:`repro.security.fuzz.invariants`) but gather their evidence in
deliberately different ways — the live auditor through the running
platform and Hypersec's bookkeeping, the snapshot checker by re-deriving
everything from a raw memory image.  This module diffs their findings
*and* their structural views of the machine; any disagreement means one
channel has a blind spot (exactly how the fuzzer surfaced the
bookkeeping-desync class of bugs).

Tolerances are intentional and narrow:

* a registered table that is unreachable *and empty* is fine — the
  kernel legitimately allocates/registers a table an instant before
  linking it, and the fuzzer itself allocates spare tables;
* a registered table that is unreachable and *nonempty* is flagged:
  live descriptors nobody walks are exactly where stale policy hides;
* ``SCTLR_EL1`` is not cross-checked against ``recorded_regs`` — the
  recorded value only pins the MMU-enable bit, which Hypersec enforces
  at trap time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.security.fuzz.invariants import InvariantReport, run_invariants
from repro.security.fuzz.snapshot_checker import (
    SnapshotEvidence,
    capture_snapshot,
)

#: Invariants stated identically by both channels; monitored-set drift
#: is diffed structurally as well.
_COMPARED_INVARIANTS = frozenset({
    "NO_SECURE_MAPPING",
    "NO_WRITABLE_TABLE_ALIAS",
    "W_XOR_X",
    "TABLES_READ_ONLY",
    "MONITORED_UNCACHED",
    "BITMAP_CONSISTENT",
    "TTBR_INTEGRITY",
    "TABLE_TOPOLOGY",
})

#: Trapped VM registers whose live value must still match what Hypersec
#: recorded at protect() time (SCTLR excluded, see module docstring).
_PINNED_REGS = ("TTBR1_EL1", "TCR_EL1", "MAIR_EL1")


@dataclass(frozen=True)
class Disagreement:
    """One divergence between the two verification channels."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class DifferentialResult:
    """Outcome of one differential audit."""

    live: InvariantReport
    offline: InvariantReport
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.disagreements

    def add(self, kind: str, detail: str) -> None:
        self.disagreements.append(Disagreement(kind, detail))

    def __str__(self) -> str:
        if self.clean:
            return (
                "differential gate clean: live and snapshot channels "
                f"agree ({len(self.live.findings)} finding(s) each)"
            )
        lines = [
            f"differential gate found {len(self.disagreements)} "
            "disagreement(s):"
        ]
        lines.extend(f"  {d}" for d in self.disagreements)
        return "\n".join(lines)


def differential_audit(system) -> DifferentialResult:
    """Audit ``system`` through both channels and diff the results."""
    evidence = SnapshotEvidence(capture_snapshot(system))
    live = system.hypersec.audit()
    offline = run_invariants(evidence)
    result = DifferentialResult(live=live, offline=offline)

    # 1. Finding diff on the invariants both channels state.
    live_keys = {(f.invariant, f.location) for f in live.findings
                 if f.invariant in _COMPARED_INVARIANTS}
    offline_keys = {(f.invariant, f.location) for f in offline.findings
                    if f.invariant in _COMPARED_INVARIANTS}
    for invariant, location in sorted(offline_keys - live_keys):
        result.add(
            "offline-only",
            f"[{invariant}] at {location:#x}: the snapshot checker sees "
            "it, the live auditor does not")
    for invariant, location in sorted(live_keys - offline_keys):
        result.add(
            "live-only",
            f"[{invariant}] at {location:#x}: the live auditor sees it, "
            "the snapshot checker does not")

    # 2. Structural diff: table topology vs Hypersec's bookkeeping.
    hypersec = system.hypersec
    reachable = evidence.reachable_tables()
    registered = set(hypersec.table_pages)
    for table in sorted(reachable - registered):
        result.add(
            "unregistered-table",
            f"table {table:#x} is reachable from the translation roots "
            "but absent from Hypersec's registered set")
    for table in sorted(registered - reachable):
        if not evidence.table_is_empty(table):
            result.add(
                "orphan-table",
                f"registered table {table:#x} is unreachable from every "
                "root yet holds live descriptors")

    # 3. Structural diff: monitored pages, bitmap vs bookkeeping.
    derived = evidence.monitored_pages()
    recorded = set(hypersec._monitored_page_refs)
    for page in sorted(derived - recorded):
        result.add(
            "monitored-pages",
            f"bitmap marks words in page {page:#x} but Hypersec does not "
            "track it as monitored")
    for page in sorted(recorded - derived):
        result.add(
            "monitored-pages",
            f"Hypersec tracks page {page:#x} as monitored but the bitmap "
            "holds no bit in it")

    # 4. Recorded VM-control registers vs the snapshotted hardware.
    for name in _PINNED_REGS:
        recorded_value = evidence.recorded_reg(name)
        if recorded_value is not None and evidence.reg(name) != recorded_value:
            result.add(
                "vm-regs",
                f"{name} is {evidence.reg(name):#x} but Hypersec recorded "
                f"{recorded_value:#x} at protect() time")
    return result
