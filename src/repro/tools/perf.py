"""Simulation wall-clock speed measurement (simulated accesses / second).

The reproduction's results are produced by millions of simulated memory
accesses funnelled through pure-Python hot paths; how *fast* those paths
run bounds the workload scales and ablation sweeps we can afford.  This
module measures engine throughput on three representative workloads:

``fork_execv``
    LMbench's fork+execv on a Native system — page-table construction,
    COW, page zeroing: the ``PhysicalMemory`` bulk-path stress.
``mmap_storm``
    LMbench's mmap/touch/munmap loop — translation and fault churn: the
    TLB/cache fast-path stress.
``monitored_write_storm``
    Repeated uncached writes to a monitored word on a full Hypernel
    system — bus, snooper, MBM pipeline and ring-buffer stress.
``table1_runner_serial`` / ``table1_runner_parallel``
    A full Table 1 regeneration through :mod:`repro.tools.runner` at
    ``jobs=1`` vs ``jobs=4`` (cache disabled) — the experiment-level
    fan-out path.  Both must report identical simulated work; their
    wall-clock ratio is the parallel speedup ``scripts/check_simspeed.py``
    reports (and gates on hosts with >= 4 cores).
``table1_runner_warmstart``
    The same Table 1 regeneration with every cell restored from a
    shared post-boot snapshot (:mod:`repro.state`) instead of booted.
    The boot images are built untimed during setup, so the measured
    wall clock is the restore-and-run path; simulated accesses/cycles
    must be *identical* to ``table1_runner_serial`` (restore-then-run
    equals boot-then-run — the bit-identical replay contract), and the
    wall-clock gap vs serial is the boot-time saving
    ``scripts/check_simspeed.py`` reports.
``table1_runner_forkserver``
    The same Table 1 regeneration dispatched to the fork-server backend
    (:mod:`repro.tools.forkserver`) at ``jobs=4``: one persistent warm
    server per system configuration forks a copy-on-write worker per
    cell.  Simulated work must be identical to serial; the wall-clock
    ratio vs ``table1_runner_parallel`` is the fork-server speedup the
    gate checks on multi-core hosts.

Two kinds of numbers come out:

* ``accesses_per_sec`` (wall clock) — the figure of merit tracked by
  ``scripts/check_simspeed.py`` across PRs;
* ``accesses`` and ``sim_cycles`` (simulated) — **deterministic**: they
  must be bit-identical run-to-run and machine-to-machine, so the gate
  also uses them to prove perf work changed no simulated behaviour.

``python -m repro bench-simspeed`` runs everything and writes
``BENCH_simspeed.json``.
"""

from __future__ import annotations

import json
import platform as _platform_mod
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import PlatformConfig

#: JSON schema version for ``BENCH_simspeed.json``.
SCHEMA_VERSION = 1

#: Default wall-clock regression tolerance (fraction) for the gate.
DEFAULT_TOLERANCE = 0.20


def default_platform_config() -> PlatformConfig:
    """The small platform the speed workloads run on (128 MB DRAM).

    The MBM event ring is kept deliberately small (it never exceeds a
    depth of one on these single-writer workloads): with a small ring
    the free-running head/tail indices wrap quickly, so a steady-state
    monitored-write loop revisits an identical machine state every few
    iterations — which is what lets the macro-op memoizer collapse the
    loop (see ``repro.tools.macroops``).
    """
    return PlatformConfig(
        dram_bytes=128 * 1024 * 1024, secure_bytes=16 * 1024 * 1024,
        mbm_ring_entries=16,
    )


@dataclass
class WorkloadSpeed:
    """Measured throughput of one workload."""

    workload: str
    iterations: int
    wall_seconds: float
    accesses: int        #: simulated accesses performed (deterministic)
    sim_cycles: int      #: simulated cycles elapsed (deterministic)
    accesses_per_sec: float
    #: advisory details (macro-op memoizer counters etc.); never part
    #: of the regression gate's comparisons.
    extras: Dict = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return asdict(self)


def count_accesses(system) -> int:
    """Simulated memory accesses performed so far on ``system``.

    Counts CPU word/block accesses plus the DRAM-level traffic the cache
    hierarchy generated; the exact composition matters less than its
    determinism — the same workload must always produce the same count.

    Observability reads (:func:`repro.obs.collect_metrics`) never show
    up here: StatSet reads, gauge derivation and ``bus.peek`` generate
    no bus transactions, so a payload's access count is byte-identical
    whether or not metrics were collected alongside it.
    """
    cpu = system.cpu.stats
    bus = system.platform.bus.stats
    return (
        cpu.get("reads")
        + cpu.get("writes")
        + cpu.get("block_read_words")
        + cpu.get("block_write_words")
        + bus.get("reads")
        + bus.get("writes")
        + bus.get("line_fills")
        + bus.get("writebacks")
    )


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
def _build_lmbench(config: PlatformConfig):
    from repro.core.hypernel import build_native
    from repro.workloads.lmbench import LmbenchSuite

    system = build_native(platform_config=config)
    suite = LmbenchSuite(system)
    suite.setup()
    return system, suite


def _build_fork_execv(config: PlatformConfig) -> Tuple[object, Callable[[], None]]:
    system, suite = _build_lmbench(config)
    return system, suite.op_fork_execv


def _build_mmap_storm(config: PlatformConfig) -> Tuple[object, Callable[[], None]]:
    system, suite = _build_lmbench(config)
    return system, suite.op_mmap


def _build_monitored_write_storm(
    config: PlatformConfig,
) -> Tuple[object, Callable[[], None]]:
    from repro.core.hypernel import build_hypernel
    from repro.kernel.objects import CRED
    from repro.security import CredIntegrityMonitor

    system = build_hypernel(
        platform_config=config, monitors=[CredIntegrityMonitor()]
    )
    init = system.spawn_init()
    euid_kva = system.kernel.linear_map.kva(
        init.cred_pa + CRED.field("euid").byte_offset
    )
    write = system.kernel.cpu.write

    def op() -> None:
        write(euid_kva, 0)

    return system, op


def _build_table1_runner(jobs: int, backend: str) -> Callable:
    """Aggregate workload: one full Table 1 regeneration via the runner.

    Unlike the single-system workloads above, the work spans several
    simulated machines (some in worker processes), so the builder
    returns ``(None, op)`` where ``op`` itself reports the simulated
    ``(accesses, sim_cycles)`` summed over every cell payload.

    The backend is pinned per workload (serial/pool/forkserver) so each
    entry keeps measuring the same dispatch path as backends evolve;
    ``REPRO_BENCH_BACKEND`` still overrides inside ``run_cells`` —
    that's what lets CI exercise the pool fallback fleet-wide.
    """

    def build(config: PlatformConfig) -> Tuple[None, Callable[[], Tuple[int, int]]]:
        import copy

        from repro.analysis.tables import table1_cells
        from repro.tools.runner import run_cells

        def op() -> Tuple[int, int]:
            cells = table1_cells(
                platform_factory=lambda: copy.deepcopy(config)
            )
            payloads = run_cells(cells, jobs=jobs, cache=None,
                                 backend=backend)
            return (
                sum(p["accesses"] for p in payloads),
                sum(p["sim_cycles"] for p in payloads),
            )

        return None, op

    return build


def _build_table1_runner_warmstart(config: PlatformConfig):
    """Table 1 via the runner with warm-started (restored) cells.

    The shared boot snapshots are created here, in the untimed build
    step; ``op`` then measures only restore-plus-workload.  Snapshots
    go to a private temporary directory so the benchmark never reads a
    stale image from the user's cache.
    """
    import copy
    import tempfile

    from repro.analysis.tables import table1_cells
    from repro.tools.runner import attach_boot_snapshots, run_cells

    snapshot_dir = tempfile.mkdtemp(prefix="repro-warmstart-")
    factory = lambda: copy.deepcopy(config)  # noqa: E731
    attach_boot_snapshots(table1_cells(platform_factory=factory),
                          cache_dir=snapshot_dir)

    def op() -> Tuple[int, int]:
        cells = attach_boot_snapshots(
            table1_cells(platform_factory=factory), cache_dir=snapshot_dir
        )
        payloads = run_cells(cells, jobs=1, cache=None)
        return (
            sum(p["accesses"] for p in payloads),
            sum(p["sim_cycles"] for p in payloads),
        )

    return None, op


#: name -> (builder, default iteration count).  Builders return either
#: ``(system, op)`` — accesses counted on the system — or ``(None, op)``
#: with ``op`` returning its own ``(accesses, sim_cycles)`` tallies.
WORKLOADS: Dict[str, Tuple[Callable, int]] = {
    "fork_execv": (_build_fork_execv, 100),
    "mmap_storm": (_build_mmap_storm, 250),
    "monitored_write_storm": (_build_monitored_write_storm, 3000),
    "table1_runner_serial": (_build_table1_runner(1, "serial"), 1),
    "table1_runner_parallel": (_build_table1_runner(4, "pool"), 1),
    "table1_runner_warmstart": (_build_table1_runner_warmstart, 1),
    "table1_runner_forkserver": (_build_table1_runner(4, "forkserver"), 1),
}

#: The workload pair whose wall-clock ratio is the runner speedup.
RUNNER_SERIAL_WORKLOAD = "table1_runner_serial"
RUNNER_PARALLEL_WORKLOAD = "table1_runner_parallel"
#: Warm-start twin of the serial runner workload: must report the same
#: simulated work; its wall-clock gap vs serial is the boot saving.
RUNNER_WARMSTART_WORKLOAD = "table1_runner_warmstart"
#: Fork-server twin of the parallel workload: same simulated work, but
#: dispatched to persistent warm servers that fork copy-on-write
#: workers.  Its wall-clock ratio vs the pool is the fork-server
#: speedup ``scripts/check_simspeed.py`` reports (and gates on hosts
#: with >= 4 cores when the backend is actually in effect).
RUNNER_FORKSERVER_WORKLOAD = "table1_runner_forkserver"


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    iterations: Optional[int] = None,
    platform_config: Optional[PlatformConfig] = None,
    memoize: Optional[bool] = None,
) -> WorkloadSpeed:
    """Build the workload's system, run it and measure throughput.

    ``memoize`` routes the hot loop through the macro-op engine
    (``None`` = the ``REPRO_MACROOPS`` default).  Simulated accesses
    and cycles are bit-identical either way; only wall clock changes.
    """
    from repro.tools.macroops import MacroOpEngine, memoization_enabled

    try:
        builder, default_iters = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown simspeed workload {name!r}; "
            f"choose from {sorted(WORKLOADS)}"
        ) from None
    iterations = default_iters if iterations is None else iterations
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    memoize = memoization_enabled() if memoize is None else memoize
    system, op = builder(platform_config or default_platform_config())
    extras: Dict = {}
    if system is None:
        # Aggregate workload: op reports its own deterministic tallies.
        accesses = cycles = 0
        start = time.perf_counter()
        for _ in range(iterations):
            op_accesses, op_cycles = op()
            accesses += op_accesses
            cycles += op_cycles
        wall = time.perf_counter() - start
    else:
        engine = MacroOpEngine(system, enabled=memoize) if memoize else None
        accesses_before = count_accesses(system)
        cycles_before = system.platform.clock.now
        start = time.perf_counter()
        if engine is not None:
            report = engine.run_repeated(name, op, iterations)
            extras = {
                "memoized": True,
                "replayed_ops": report.replayed_ops,
                "recorded_ops": report.recorded_ops,
                "raw_ops": report.raw_ops,
                "cycle_length": report.cycle_length,
                "bail_reason": report.bail_reason,
            }
        else:
            for _ in range(iterations):
                op()
            extras = {"memoized": False}
        wall = time.perf_counter() - start
        accesses = count_accesses(system) - accesses_before
        cycles = system.platform.clock.now - cycles_before
    return WorkloadSpeed(
        workload=name,
        iterations=iterations,
        wall_seconds=round(wall, 6),
        accesses=accesses,
        sim_cycles=cycles,
        accesses_per_sec=round(accesses / wall, 1) if wall > 0 else 0.0,
        extras=extras,
    )


#: Suffix naming the memoizer-off twin of a workload in reports.
NOMEMO_SUFFIX = "_nomemo"
#: System workloads that get a twin entry measured with the macro-op
#: memoizer disabled.  The twins pin down both sides of the exactness
#: contract: their ``accesses``/``sim_cycles`` must equal the memoized
#: entry's bit for bit (``scripts/check_simspeed.py`` gates on it).
NOMEMO_WORKLOADS = ("fork_execv", "mmap_storm", "monitored_write_storm")


def _resolve_workload(name: str) -> Tuple[str, Optional[bool]]:
    """Map a report entry name to ``(base workload, memoize override)``."""
    if name.endswith(NOMEMO_SUFFIX):
        base = name[: -len(NOMEMO_SUFFIX)]
        if base in WORKLOADS:
            return base, False
    return name, None


def run_simspeed(
    iters_scale: float = 1.0,
    platform_config: Optional[PlatformConfig] = None,
    workloads: Optional[List[str]] = None,
    repeats: int = 1,
    memoize: Optional[bool] = None,
) -> List[WorkloadSpeed]:
    """Measure every (or the selected) workload.

    ``iters_scale`` scales the default iteration counts; note that the
    deterministic fields (``accesses``, ``sim_cycles``) are only
    comparable between runs using the same scale.

    ``repeats`` measures each workload several times (a fresh system
    each time) and keeps the best throughput — wall clock is noisy on a
    shared machine, the simulation is not.  The deterministic fields
    must agree across repeats; a mismatch raises ``RuntimeError``.

    The default sweep includes a ``*_nomemo`` twin for each workload in
    :data:`NOMEMO_WORKLOADS` — the identical run with the macro-op
    memoizer off.  ``memoize`` overrides the mode for the non-twin
    entries (``None`` = the ``REPRO_MACROOPS`` default); when the
    memoizer is globally disabled the twins are skipped as redundant.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    from repro.tools.macroops import memoization_enabled

    effective = memoization_enabled() if memoize is None else memoize
    if workloads is None:
        names = list(WORKLOADS)
        if effective:
            names += [base + NOMEMO_SUFFIX for base in NOMEMO_WORKLOADS]
    else:
        names = workloads
    results = []
    for name in names:
        base_name, memo_override = _resolve_workload(name)
        workload_memoize = memoize if memo_override is None else memo_override
        default_iters = WORKLOADS[base_name][1]
        iterations = max(1, int(round(default_iters * iters_scale)))
        best: Optional[WorkloadSpeed] = None
        for _ in range(repeats):
            run = run_workload(base_name, iterations=iterations,
                               platform_config=platform_config,
                               memoize=workload_memoize)
            if best is not None and (
                run.accesses != best.accesses
                or run.sim_cycles != best.sim_cycles
            ):
                raise RuntimeError(
                    f"{name}: repeated runs disagree on simulated work "
                    f"(accesses {best.accesses} vs {run.accesses}, cycles "
                    f"{best.sim_cycles} vs {run.sim_cycles}) — the engine "
                    f"is not deterministic"
                )
            if best is None or run.accesses_per_sec > best.accesses_per_sec:
                best = run
        best.workload = name
        results.append(best)
    return results


# ----------------------------------------------------------------------
# Reporting and the regression gate
# ----------------------------------------------------------------------
def report_as_dict(results: List[WorkloadSpeed],
                   iters_scale: float = 1.0) -> Dict:
    """The ``BENCH_simspeed.json`` document for a set of results."""
    return {
        "schema": SCHEMA_VERSION,
        "iters_scale": iters_scale,
        "python": _platform_mod.python_version(),
        "workloads": {r.workload: r.as_dict() for r in results},
    }


def format_report(results: List[WorkloadSpeed]) -> str:
    """Human-readable table of one measurement run."""
    lines = [
        f"{'workload':24s} {'iters':>7s} {'wall s':>8s} "
        f"{'accesses':>10s} {'sim cycles':>12s} {'acc/s':>12s}"
    ]
    for r in results:
        lines.append(
            f"{r.workload:24s} {r.iterations:7d} {r.wall_seconds:8.3f} "
            f"{r.accesses:10d} {r.sim_cycles:12d} {r.accesses_per_sec:12.0f}"
        )
    return "\n".join(lines)


def write_report(results: List[WorkloadSpeed], path: str,
                 iters_scale: float = 1.0) -> None:
    with open(path, "w") as handle:
        json.dump(report_as_dict(results, iters_scale), handle, indent=2)
        handle.write("\n")


def load_report(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def compare_to_baseline(
    current: Dict,
    baseline: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Compare two report dicts; returns a list of failure descriptions.

    Two classes of failure:

    * **throughput regression** — a workload's ``accesses_per_sec``
      dropped more than ``tolerance`` below the baseline (machine
      sensitive, hence the generous default);
    * **determinism drift** — with matching iteration counts, the
      simulated ``accesses`` or ``sim_cycles`` differ at all.  These are
      exact invariants: perf work must not change simulated behaviour.

    The ``*_nomemo`` twins are exempt from the throughput floor (their
    exact fields are still checked): they exist to pin the memoizer's
    exactness contract, and their wall clock tracks the deliberately
    unoptimized path — noise there is not a regression in anything the
    project optimizes.
    """
    failures: List[str] = []
    baseline_workloads = baseline.get("workloads", {})
    for name, entry in current.get("workloads", {}).items():
        base = baseline_workloads.get(name)
        if base is None:
            continue
        floor = base["accesses_per_sec"] * (1.0 - tolerance)
        if (entry["accesses_per_sec"] < floor
                and not name.endswith(NOMEMO_SUFFIX)):
            failures.append(
                f"{name}: throughput {entry['accesses_per_sec']:.0f} acc/s "
                f"is below the allowed floor {floor:.0f} "
                f"(baseline {base['accesses_per_sec']:.0f}, "
                f"tolerance {tolerance:.0%})"
            )
        if entry["iterations"] == base["iterations"]:
            for field in ("accesses", "sim_cycles"):
                if entry[field] != base[field]:
                    failures.append(
                        f"{name}: simulated {field} changed "
                        f"({base[field]} -> {entry[field]}) — the engine's "
                        f"behaviour is no longer deterministic vs baseline"
                    )
    return failures
