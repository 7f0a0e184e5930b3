"""Tests for the adversarial hypercall fuzzer (repro.security.fuzz).

Covers the three legs of the subsystem:

* the shared invariant specification and the snapshot-grounded second
  verification channel agree with the live auditor on real machines
  (boot and post-attack states, both linear-map modes);
* the differential gate catches the bookkeeping-desync bug class that
  either channel alone is blind to (satellite of this PR);
* the state machine itself — short seeded runs stay clean, recorded
  corpus traces replay clean, and a deliberately seeded policy hole is
  caught immediately (the fuzzer is not vacuous).
"""

import gc
import json

import pytest

pytest.importorskip("hypothesis")

from repro.attacks import FUZZABLE_ATTACKS
from repro.core import hypercalls as hc
from repro.core.hypersec import Hypersec
from repro.security.fuzz.differential import differential_audit
from repro.security.fuzz.invariants import run_invariants
from repro.security.fuzz.machine import (
    LAST_TRACE,
    FuzzContext,
    FuzzViolation,
    apply_op,
    boot_snapshot,
    load_trace,
    replay_corpus,
    replay_ops,
    restore_from_snapshot,
    run_fuzz,
    trace_document,
)
from repro.security.fuzz.snapshot_checker import (
    SnapshotEvidence,
    capture_snapshot,
)

CORPUS_DIR = "tests/corpus"


def fresh_system(profile):
    return restore_from_snapshot(boot_snapshot(profile))


# ----------------------------------------------------------------------
# Channel agreement on real machines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile", ["section", "page"])
class TestChannelAgreement:
    def test_boot_state_gates_clean(self, profile):
        system = fresh_system(profile)
        result = differential_audit(system)
        assert result.clean, str(result)
        assert result.live.clean and result.offline.clean

    def test_offline_channel_counts_real_structures(self, profile):
        system = fresh_system(profile)
        evidence = SnapshotEvidence(capture_snapshot(system))
        report = run_invariants(evidence)
        assert report.clean
        assert report.tables_walked == len(system.hypersec.table_pages)
        assert report.leaves_checked > 0

    def test_post_attack_states_gate_clean(self, profile):
        system = fresh_system(profile)
        for attack_cls in FUZZABLE_ATTACKS.values():
            outcome = attack_cls().mount(system)
            assert outcome.blocked and not outcome.succeeded
            result = differential_audit(system)
            assert result.clean, (
                f"after {attack_cls.name}: {result}"
            )


# ----------------------------------------------------------------------
# The differential gate catches what either channel alone misses
# ----------------------------------------------------------------------
class TestDifferentialDesync:
    def test_dropped_table_registration_is_caught(self):
        """Satellite: a table page silently vanishing from Hypersec's
        bookkeeping leaves the live auditor blind (the lost table is
        simply not walked and not defended) — only the raw-memory
        channel still sees the structure and disagrees."""
        system = fresh_system("section")
        hypersec = system.hypersec
        victim = sorted(hypersec.linear_tables)[1]
        hypersec.table_pages.discard(victim)

        # The live channel alone stays clean: exactly the blind spot.
        assert hypersec.audit().clean

        result = differential_audit(system)
        assert not result.clean
        kinds = {d.kind for d in result.disagreements}
        assert "unregistered-table" in kinds, str(result)

    def test_clean_after_restore(self):
        # The desync above must not leak into later tests: every test
        # restores its own machine from the cached snapshot.
        assert differential_audit(fresh_system("section")).clean


# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------
class TestFuzzMachine:
    def test_smoke_section(self):
        stats = run_fuzz(profile="section", seed=20260809,
                         max_examples=20, steps=6)
        assert stats.get("violations", 0) == 0
        assert stats.get("differential_disagreements", 0) == 0
        assert stats["ops"] > 0
        # Every example that completed ran the differential gate.
        assert stats["differential_gates"] == stats["examples"]

    def test_smoke_page(self):
        stats = run_fuzz(profile="page", seed=99, max_examples=10, steps=6)
        assert stats.get("violations", 0) == 0
        assert stats["differential_gates"] == stats["examples"]

    def test_run_leaves_no_frozen_heap(self):
        # run_fuzz freezes the heap it starts with for the run only.
        run_fuzz(profile="section", seed=0, max_examples=1, steps=1)
        assert gc.get_freeze_count() == 0

    def test_failing_run_leaves_no_frozen_heap(self, monkeypatch):
        from repro.security.fuzz import machine

        class Dirty:
            clean = False

            def __str__(self):
                return "planted disagreement"

        monkeypatch.setattr(machine, "differential_audit",
                            lambda system: Dirty())
        with pytest.raises(FuzzViolation, match="planted disagreement"):
            run_fuzz(profile="section", seed=0, max_examples=1, steps=1)
        assert gc.get_freeze_count() == 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            boot_snapshot("huge")

    def test_seeded_policy_hole_is_caught(self, monkeypatch):
        """Meta-test: disable the leaf checks and the fuzzer must flag
        the first invariant-violating write Hypersec then accepts —
        proof the oracle actually bites."""
        monkeypatch.setattr(
            Hypersec, "_check_leaf",
            lambda self, desc_paddr, desc, level, old: hc.HVC_OK,
        )
        ops = [
            {"op": "alloc", "root": True, "flaw": "none", "index": 0},
            {"op": "write", "table": {"kind": "fuzz", "index": 0},
             "slot": 5, "level": 0,
             "desc": {"kind": "leaf", "space": "secure", "index": 0,
                      "writable": True, "executable": False,
                      "user": False, "cacheable": True}},
        ]
        with pytest.raises(FuzzViolation, match="invariant-violating"):
            replay_ops("section", ops)

    def test_denied_writes_change_nothing(self):
        """Direct probe of the executor's side-effect check: a denied
        hostile write leaves the descriptor untouched."""
        ctx = FuzzContext(fresh_system("section"))
        op = {"op": "write", "table": {"kind": "root", "index": 0},
              "slot": 0, "level": 1,
              "desc": {"kind": "leaf", "space": "secure", "index": 0,
                       "writable": True, "executable": False,
                       "user": False, "cacheable": True}}
        assert apply_op(ctx, op) == "denied"
        assert ctx.hypersec.audit().clean


# ----------------------------------------------------------------------
# Corpus replay
# ----------------------------------------------------------------------
class TestCorpus:
    def test_corpus_replays_clean(self):
        totals = replay_corpus(CORPUS_DIR)
        assert totals["corpus_files"] >= 3
        assert totals.get("violations", 0) == 0
        assert totals.get("differential_disagreements", 0) == 0
        assert totals["ops"] > 0
        # The traces exercise allowed and denied paths of the major
        # hypercalls, trapped registers and the attack suite.
        assert totals.get("alloc.ok", 0) > 0
        assert totals.get("alloc.denied", 0) > 0
        assert totals.get("region.ok", 0) > 0
        assert totals.get("region.denied", 0) > 0
        assert totals.get("attack.blocked", 0) >= len(FUZZABLE_ATTACKS)
        assert totals.get("msr.trapped", 0) > 0

    def test_trace_roundtrip(self, tmp_path):
        replay_ops("section", [
            {"op": "alloc", "root": False, "flaw": "secure", "index": 0},
            {"op": "mbm"},
        ])
        path = tmp_path / "trace.json"
        document = trace_document("section", note="roundtrip")
        path.write_text(json.dumps(document))
        profile, ops = load_trace(str(path))
        assert profile == "section"
        assert [entry["op"] for entry in LAST_TRACE] == ops
        # Stored traces are plain JSON — portable corpus files.
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.fuzz.trace/1"
        assert document["note"] == "roundtrip"

    def test_corrupt_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other", "ops": []}))
        with pytest.raises(ValueError):
            load_trace(str(path))
