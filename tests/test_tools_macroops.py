"""Macro-op memoization engine (repro.tools.macroops).

The contract (ISSUE 7): a memoized loop must leave the machine — every
counter, the clock, memory, caches, monitor state — *bit-identical* to
the plain ``for _ in range(n): op()`` loop, while replaying most
iterations as aggregate effect applications.  Anything the engine
cannot prove periodic must fall back to raw execution, never to a
wrong answer.
"""

import pytest

from repro.config import PlatformConfig
from repro.obs.metrics import collect_metrics
from repro.obs.profiler import attribute_cycles
from repro.tools.macroops import (
    _STRIP_KEYS,
    MacroOpEngine,
    _strip,
    memoization_enabled,
)


def small_config():
    return PlatformConfig(
        dram_bytes=64 * 1024 * 1024, secure_bytes=8 * 1024 * 1024,
        mbm_ring_entries=16,
    )


def build_storm():
    """A full-Hypernel system and its op: one uncached write to the
    monitored ``euid`` word (bus, snooper, MBM pipeline and ring).

    The small MBM ring (16 entries) wraps its free-running head/tail
    indices quickly, so the loop revisits an identical machine state
    every few iterations — which is what lets the memoizer collapse it.
    """
    from repro.core.hypernel import build_hypernel
    from repro.kernel.objects import CRED
    from repro.security import CredIntegrityMonitor

    system = build_hypernel(
        platform_config=small_config(), monitors=[CredIntegrityMonitor()]
    )
    init = system.spawn_init()
    euid_kva = system.kernel.linear_map.kva(
        init.cred_pa + CRED.field("euid").byte_offset
    )
    write = system.kernel.cpu.write

    def op():
        write(euid_kva, 0)

    return system, op


def build_fork():
    """A Native system and LMbench's fork+execv op (page-table
    construction, COW, page zeroing)."""
    from repro.core.hypernel import build_native
    from repro.workloads.lmbench import LmbenchSuite

    system = build_native(platform_config=small_config())
    suite = LmbenchSuite(system)
    suite.setup()
    return system, suite.op_fork_execv


def machine_image(system):
    """Everything the bit-identical contract covers, in one value."""
    return (
        system.count_accesses(),
        system.platform.clock.now,
        dict(system.platform.clock.attribution),
        collect_metrics(system).to_dict(),
    )


def run_pair(build, count, **engine_kwargs):
    """Run ``count`` ops memoized and raw on twin systems."""
    sys_memo, op_memo = build()
    engine = MacroOpEngine(sys_memo, enabled=True, **engine_kwargs)
    report = engine.run_repeated("op", op_memo, count)

    sys_raw, op_raw = build()
    for _ in range(count):
        op_raw()
    return sys_memo, sys_raw, engine, report


class TestBitIdenticalReplay:
    def test_storm_memoized_equals_raw(self):
        sys_memo, sys_raw, engine, report = run_pair(build_storm, 600)
        assert report.replayed_ops > 0, "storm must memoize (vacuity)"
        assert report.replayed_ops + report.recorded_ops + report.raw_ops \
            == 600
        img_memo = machine_image(sys_memo)
        img_raw = machine_image(sys_raw)
        # The memoizer's own counters live on sys_memo only (the
        # "macroops" component and the advisory macroop_replay
        # attribution bucket); drop both before comparing.
        for img in (img_memo, img_raw):
            img[3]["components"].pop("macroops", None)
            img[3]["attribution"].pop("macroop_replay", None)
        assert img_memo == img_raw

    def test_fork_execv_memoized_equals_raw(self):
        sys_memo, sys_raw, engine, report = run_pair(build_fork, 40)
        assert report.replayed_ops > 0
        assert sys_memo.count_accesses() == sys_raw.count_accesses()
        assert sys_memo.platform.clock.now == sys_raw.platform.clock.now

    def test_integrity_counters_and_profiler_site(self):
        sys_memo, _, engine, report = run_pair(build_storm, 600)
        stats = sys_memo.macroop_stats
        assert stats.get("integrity_checks") >= 1
        assert stats.get("replay_divergence") == 0
        assert stats.get("hits") >= 1
        assert stats.get("replayed_sim_cycles") > 0
        flat = attribute_cycles(sys_memo).as_flat_dict()
        assert flat["macroop_replay"] == stats.get("replayed_sim_cycles")


class TestBailConditions:
    """Unprovable loops run raw — and still produce the right answer."""

    def test_op_returning_value_bails(self):
        system, op = build_storm()
        engine = MacroOpEngine(system, enabled=True)

        def chatty():
            op()
            return 42

        report = engine.run_repeated("chatty", chatty, 40)
        assert report.bail_reason == "return_value"
        assert report.replayed_ops == 0
        assert report.raw_ops + report.recorded_ops == 40

    def test_clock_reading_op_bails(self):
        system, op = build_storm()
        engine = MacroOpEngine(system, enabled=True)
        clock = system.platform.clock

        def timed():
            _ = clock.now
            op()

        report = engine.run_repeated("timed", timed, 40)
        assert report.bail_reason == "clock_read"
        assert report.replayed_ops == 0

    def test_aperiodic_op_runs_raw(self):
        system, op = build_storm()
        engine = MacroOpEngine(system, enabled=True, max_samples=16)
        kern = system.kernel
        pages = [kern.alloc_page("test-scratch") for _ in range(3)]
        state = {"i": 0}

        def aperiodic():
            # A fresh word every call: the shadow never repeats.
            kern.cpu.write(
                kern.linear_map.kva(pages[0]) + 8 * (state["i"] % 64),
                state["i"],
            )
            state["i"] += 1

        report = engine.run_repeated("aperiodic", aperiodic, 40)
        assert report.replayed_ops == 0
        assert report.bail_reason in ("no_cycle", "budget")
        # Structural bails are remembered: the next call skips sampling.
        report2 = engine.run_repeated("aperiodic", aperiodic, 40)
        if report.bail_reason == "no_cycle":
            assert report2.raw_ops == 40

    def test_short_loops_skip_memoization(self):
        system, op = build_storm()
        engine = MacroOpEngine(system, enabled=True, min_iterations=8)
        report = engine.run_repeated("op", op, 4)
        assert report.bail_reason == "short"
        assert report.raw_ops == 4

    def test_disabled_engine_runs_raw(self):
        system, op = build_storm()
        engine = MacroOpEngine(system, enabled=False)
        report = engine.run_repeated("op", op, 40)
        assert report.bail_reason == "disabled"
        assert report.raw_ops == 40
        assert system.macroop_stats.get("hits") == 0


class TestEnvironmentSwitch:
    def test_repro_macroops_0_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_MACROOPS", "0")
        assert not memoization_enabled()
        system, op = build_storm()
        engine = MacroOpEngine(system)  # enabled=None → env default
        assert not engine.enabled

    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_MACROOPS", raising=False)
        assert memoization_enabled()

    def test_workload_invariants_match_with_and_without(self):
        sys_memo, sys_raw, _, report = run_pair(build_storm, 200)
        assert report.replayed_ops > 0
        assert sys_memo.count_accesses() == sys_raw.count_accesses()
        assert sys_memo.platform.clock.now == sys_raw.platform.clock.now


class TestContentAddressedInvalidation:
    """State drift between calls must miss the table, not mis-replay."""

    def test_mutated_memory_invalidates_cross_call_entry(self):
        count = 200
        sys_memo, op_memo = build_storm()
        engine = MacroOpEngine(sys_memo, enabled=True)
        engine.run_repeated("op", op_memo, count)
        engine.run_repeated("op", op_memo, count)  # 2nd call stores entry

        # Perturb machine state between calls: new page, one write.
        kern = sys_memo.kernel
        page = kern.alloc_page("test-scratch")
        kern.cpu.write(kern.linear_map.kva(page), 0xDEAD)
        engine.run_repeated("op", op_memo, count)

        sys_raw, op_raw = build_storm()
        for _ in range(2 * count):
            op_raw()
        kern_raw = sys_raw.kernel
        page_raw = kern_raw.alloc_page("test-scratch")
        kern_raw.cpu.write(kern_raw.linear_map.kva(page_raw), 0xDEAD)
        for _ in range(count):
            op_raw()

        assert sys_memo.count_accesses() == sys_raw.count_accesses()
        assert sys_memo.platform.clock.now == sys_raw.platform.clock.now


class TestFingerprintNormalization:
    """The fast shallow strip must agree with the full deep strip.

    ``_full_state`` only strips observer keys at the top two levels
    (plus the named ``deep`` subtrees); that is sound only while no
    component buries a ``_STRIP_KEYS`` key deeper.  This is the
    regression guard for that layout assumption.
    """

    @pytest.mark.parametrize("builder", [build_storm, build_fork])
    def test_shallow_strip_matches_deep_strip(self, builder):
        system, op = builder()
        for _ in range(12):  # churn: TLB fills, allocator, monitors
            op()
        cases = [(system.kernel.state_dict(), ("slab",)),
                 (system.cpu.mmu.state_dict(), ())]
        for attr in ("hypersec", "kvm"):
            component = getattr(system, attr, None)
            if component is not None:
                cases.append((component.state_dict(), ()))
        for state, deep in cases:
            assert MacroOpEngine._shallow_strip(state, deep) == _strip(state)

    def test_strip_keys_cover_observer_state(self):
        # The normalized-out keys are exactly the monotonic logs whose
        # deltas the engine replays.
        assert {"stats", "busy_cycles", "alerts"} <= _STRIP_KEYS
