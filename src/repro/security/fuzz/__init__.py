"""Adversarial verification of Hypersec (fuzzing + dissimilar audit).

The paper's Discussion section argues Hypersec is small enough to be
formally verified; this package is the testing-shaped counterpart of
that argument.  It provides four cooperating pieces:

* :mod:`repro.security.fuzz.invariants` — Hypernel's security
  invariants as *predicate objects* plus a hardened translation-table
  walker and :func:`~repro.security.fuzz.invariants.run_invariants`,
  the single checking engine every verifier shares.
* :mod:`repro.security.fuzz.snapshot_checker` — a dissimilar second
  verification channel: it copies a machine's memory, registers and
  Hypersec's claimed policy into an in-memory
  :class:`~repro.security.fuzz.snapshot_checker.Snapshot` and
  re-derives the table topology, monitored pages and control-register
  state from it, *without* trusting Hypersec's or the live auditor's
  bookkeeping.
* :mod:`repro.security.fuzz.differential` — the gate that diffs the
  live auditor against the snapshot checker; any disagreement means one
  channel has a blind spot.  The fuzzer runs it after every example,
  and ``python -m repro audit`` on the machine it builds.
* :mod:`repro.security.fuzz.machine` — a Hypothesis
  ``RuleBasedStateMachine`` that drives random hypercall sequences, raw
  attack primitives and trapped-MSR writes against a booted machine,
  asserting after every rule that Hypersec's verdicts and the
  invariants agree.  (Imported lazily: it needs ``hypothesis``.)

Import note: this module deliberately avoids importing ``hypothesis``
so the invariant/checker layer stays usable in environments without it.
"""

from repro.security.fuzz.invariants import (
    Evidence,
    Finding,
    Geometry,
    InvariantReport,
    LEAF_INVARIANTS,
    LeafInvariant,
    NO_SECURE_MAPPING,
    NO_WRITABLE_TABLE_ALIAS,
    TABLE_TOPOLOGY,
    W_XOR_X,
    run_invariants,
)

__all__ = [
    "Evidence",
    "Finding",
    "Geometry",
    "InvariantReport",
    "LEAF_INVARIANTS",
    "LeafInvariant",
    "NO_SECURE_MAPPING",
    "NO_WRITABLE_TABLE_ALIAS",
    "TABLE_TOPOLOGY",
    "W_XOR_X",
    "run_invariants",
]
