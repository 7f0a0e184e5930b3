"""Determinism regression guard for the simulation engine.

The hot-path optimisations (flat-memory backing, TLB/cache fast paths,
snooper short-circuits, batched counters) must not change a single
simulated event: running the same scenario twice — or before/after any
perf change — must produce identical statistics, ring-buffer contents
and cycle counts.  ``TestDeterminism`` enforces the run-to-run half;
``TestGoldenCells`` enforces the cross-commit half by comparing the
paper's Table 1 and Table 2 cells with the exact ``accesses`` /
``sim_cycles`` recorded in ``benchmarks/e2e/expected/cells.json``.
"""

import argparse
import json
import pathlib

import pytest

from repro.analysis.monitoring import table2_cells
from repro.analysis.tables import table1_cells
from repro.cli import _platform_config as _cli_platform_config
from repro.config import PlatformConfig
from repro.core.hypernel import build_hypernel, build_kvm_guest, build_native
from repro.kernel.objects import CRED
from repro.obs import collect_metrics
from repro.security import CredIntegrityMonitor
from repro.tools.runner import run_cells

#: Exact per-cell counts of the paper's commands (read only; rewritten
#: only by ``benchmarks/e2e/run.py --record``).
GOLDEN_CELLS = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "expected" / "cells.json"
)


def _platform_config():
    return PlatformConfig(
        dram_bytes=96 * 1024 * 1024, secure_bytes=16 * 1024 * 1024
    )


def _run_monitored_scenario():
    """Quickstart workload plus one monitored-write attack; returns every
    observable the engine produces."""
    system = build_hypernel(
        platform_config=_platform_config(), monitors=[CredIntegrityMonitor()]
    )
    kernel = system.kernel
    init = system.spawn_init()

    # Benign kernel activity (quickstart's workload).
    kernel.vfs.mkdir_p("/home/user")
    kernel.sys.creat(init, "/home/user/notes.txt")
    handle = kernel.sys.open(init, "/home/user/notes.txt")
    kernel.sys.write(init, handle, 4096)
    kernel.sys.close(init, handle)
    child = kernel.sys.fork(init)
    kernel.procs.context_switch(child)
    kernel.sys.exit(child)
    kernel.procs.context_switch(init)
    kernel.sys.wait(init)
    kernel.sys.setuid(init, 1000)

    # The attack: a direct kernel write to the monitored cred word.
    euid_kva = kernel.linear_map.kva(
        init.cred_pa + CRED.field("euid").byte_offset
    )
    kernel.cpu.write(euid_kva, 0)

    monitor = system.monitor_by_name("cred_monitor")
    ring_words = [
        system.platform.bus.peek(system.mbm.ring.base + offset * 8)
        for offset in range(2 + 2 * min(system.mbm.ring.entries, 32))
    ]
    platform = system.platform
    return {
        "cycles": platform.clock.now,
        "metrics": collect_metrics(system).to_dict(),
        "ring_words": ring_words,
        "alerts": [
            (alert.reason, alert.addr, alert.observed, alert.expected)
            for alert in monitor.alerts
        ],
        "events": monitor.event_count,
        "population": platform.memory.population(),
    }


class TestDeterminism:
    def test_monitored_scenario_is_bit_identical_across_runs(self):
        first = _run_monitored_scenario()
        second = _run_monitored_scenario()
        assert first["cycles"] == second["cycles"]
        assert first["metrics"] == second["metrics"]
        assert first["ring_words"] == second["ring_words"]
        assert first["alerts"] == second["alerts"]
        assert first["events"] == second["events"]
        assert first["population"] == second["population"]
        # The scenario really exercised the machine and the monitor.
        assert first["events"] > 0
        assert first["alerts"]
        assert first["cycles"] > 0

    def test_all_three_configurations_are_deterministic(self):
        """Table 1's three systems produce stable cycle counts for the
        same micro-operation sequence."""
        from repro.workloads.lmbench import LmbenchSuite

        def run(builder):
            system = builder(platform_config=_platform_config())
            suite = LmbenchSuite(system, warmup=2, iterations=4)
            suite.setup()
            suite.run_op("fork+execv")
            suite.run_op("mmap")
            return system.platform.clock.now

        for builder in (build_native, build_kvm_guest, build_hypernel):
            assert run(builder) == run(builder)


def _default_platform():
    """The CLI's default platform (``--dram-mb 192``: 24 MB secure)."""
    return _cli_platform_config(argparse.Namespace(dram_mb=192))


def _cell_counts(cells):
    payloads = run_cells(cells, jobs=1, cache=None)
    return {
        cell.label(): {
            "accesses": payload["accesses"],
            "sim_cycles": payload["sim_cycles"],
        }
        for cell, payload in zip(cells, payloads)
    }


@pytest.fixture(scope="module")
def golden_cells():
    return json.loads(GOLDEN_CELLS.read_text())


class TestGoldenCells:
    """The paper's cells reproduce the committed exact counts.

    Whole-dict equality also pins the label set, so a cell that goes
    missing cannot make the comparison pass vacuously.
    """

    def test_table1_cells_match_golden(self, golden_cells):
        cells = table1_cells(platform_config=_default_platform())
        assert _cell_counts(cells) == golden_cells["table1"]

    def test_table2_cells_match_golden(self, golden_cells):
        cells = table2_cells(platform_config=_default_platform())
        assert _cell_counts(cells) == golden_cells["table2"]
