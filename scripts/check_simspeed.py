#!/usr/bin/env python3
"""Sim-speed regression gate.

Runs the simulation-speed benchmark (``repro.tools.perf``) and compares
it against the committed baseline ``BENCH_simspeed.json``:

* fails (exit 1) when any workload's wall-clock throughput drops more
  than the tolerance below the baseline (default 20%, machine-sensitive
  — override with ``--tolerance`` or ``REPRO_SIMSPEED_TOLERANCE``);
* fails when the *simulated* access or cycle counts differ from the
  baseline at equal iteration counts — those are exact, machine
  independent invariants: perf work must never change simulated
  behaviour;
* verifies the parallel-runner entries: both ``table1_runner_*``
  workloads must be present in the baseline, serial and parallel runs
  must report *identical* simulated accesses/sim_cycles (fan-out must
  not change simulated behaviour), and on hosts with >= 4 cores the
  parallel run must be at least ``--min-parallel-speedup`` (default
  2.0x, env ``REPRO_MIN_PARALLEL_SPEEDUP``) faster than the serial
  run.  On smaller hosts the speedup is reported but not gated;
* verifies the warm-start entry: ``table1_runner_warmstart`` (cells
  restored from shared post-boot snapshots, see ``repro.state``) must
  report simulated accesses/sim_cycles *identical* to
  ``table1_runner_serial`` — restore-then-run equals boot-then-run —
  and the boot-time saving vs the serial run is reported (wall clock,
  machine sensitive, so informational only);
* verifies the macro-op memoization legs: each workload in
  ``perf.NOMEMO_WORKLOADS`` is measured twice — memoizer on (the plain
  entry) and off (the ``*_nomemo`` twin) — and the two legs must report
  *identical* simulated accesses/sim_cycles (replay must not change
  simulated behaviour).  The check also fails vacuously: the memoized
  ``monitored_write_storm`` leg must actually replay ops
  (``extras.replayed_ops > 0``), otherwise the exactness comparison
  proves nothing.  Skipped entirely when ``REPRO_MACROOPS=0`` disables
  the memoizer (the twins are redundant then).

Usage::

    PYTHONPATH=src python scripts/check_simspeed.py            # gate
    PYTHONPATH=src python scripts/check_simspeed.py --update   # re-baseline

Also exposed as an opt-in pytest marker: ``pytest benchmarks -m simspeed``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.tools import perf  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "BENCH_simspeed.json"

#: Gate the parallel speedup only on hosts that can actually exhibit it.
SPEEDUP_GATE_MIN_CORES = 4


def runner_failures(current: dict, baseline: dict,
                    min_speedup: float) -> list:
    """Check the parallel-runner workload pair (see module docstring)."""
    failures = []
    serial_name = perf.RUNNER_SERIAL_WORKLOAD
    parallel_name = perf.RUNNER_PARALLEL_WORKLOAD
    for name in (serial_name, parallel_name):
        if name not in baseline.get("workloads", {}):
            failures.append(
                f"{name}: missing from the baseline — re-run with --update"
            )
    current_workloads = current.get("workloads", {})
    serial = current_workloads.get(serial_name)
    parallel = current_workloads.get(parallel_name)
    if not serial or not parallel:
        return failures
    for field in ("accesses", "sim_cycles"):
        if serial[field] != parallel[field]:
            failures.append(
                f"parallel runner changed simulated {field} vs serial "
                f"({serial[field]} vs {parallel[field]}) — fan-out must "
                f"not change simulated behaviour"
            )
    cores = os.cpu_count() or 1
    if parallel["wall_seconds"] > 0:
        speedup = serial["wall_seconds"] / parallel["wall_seconds"]
        print(f"parallel table1 runner speedup: {speedup:.2f}x "
              f"(jobs=4 on {cores} cores)")
        if cores >= SPEEDUP_GATE_MIN_CORES and speedup < min_speedup:
            failures.append(
                f"parallel table1 runner speedup {speedup:.2f}x is below "
                f"the required {min_speedup:.2f}x on a {cores}-core host"
            )
    return failures


def macroop_failures(current: dict, baseline: dict) -> list:
    """Check the memoizer-on vs memoizer-off legs (see module docstring)."""
    from repro.tools.macroops import memoization_enabled

    if not memoization_enabled():
        print("macro-op memoizer disabled (REPRO_MACROOPS=0); "
              "skipping the memoization legs")
        return []
    failures = []
    current_workloads = current.get("workloads", {})
    for base_name in perf.NOMEMO_WORKLOADS:
        twin_name = base_name + perf.NOMEMO_SUFFIX
        if twin_name not in baseline.get("workloads", {}):
            failures.append(
                f"{twin_name}: missing from the baseline — re-run with "
                f"--update"
            )
        memo = current_workloads.get(base_name)
        raw = current_workloads.get(twin_name)
        if not memo or not raw:
            continue
        for field in ("accesses", "sim_cycles"):
            if memo[field] != raw[field]:
                failures.append(
                    f"{base_name}: macro-op memoization changed simulated "
                    f"{field} ({raw[field]} without vs {memo[field]} with) "
                    f"— replay must not change simulated behaviour"
                )
        if raw["wall_seconds"] > 0 and memo["wall_seconds"] > 0:
            speedup = raw["wall_seconds"] / memo["wall_seconds"]
            print(f"macro-op memoization speedup on {base_name}: "
                  f"{speedup:.2f}x")
    # Vacuity: the exactness comparison above proves nothing unless the
    # memoized storm leg actually replayed ops.
    storm = current_workloads.get("monitored_write_storm")
    if storm is not None:
        extras = storm.get("extras", {})
        if extras.get("memoized") and not extras.get("replayed_ops"):
            failures.append(
                "monitored_write_storm: memoizer enabled but zero ops were "
                "replayed (bail_reason="
                f"{extras.get('bail_reason', '?')!r}) — the memoization "
                "legs are vacuous"
            )
    return failures


def warmstart_failures(current: dict, baseline: dict) -> list:
    """Check the warm-start runner entry (see module docstring)."""
    failures = []
    warm_name = perf.RUNNER_WARMSTART_WORKLOAD
    if warm_name not in baseline.get("workloads", {}):
        failures.append(
            f"{warm_name}: missing from the baseline — re-run with --update"
        )
    current_workloads = current.get("workloads", {})
    serial = current_workloads.get(perf.RUNNER_SERIAL_WORKLOAD)
    warm = current_workloads.get(warm_name)
    if not serial or not warm:
        return failures
    for field in ("accesses", "sim_cycles"):
        if serial[field] != warm[field]:
            failures.append(
                f"warm-start runner changed simulated {field} vs cold boot "
                f"({serial[field]} vs {warm[field]}) — restore-then-run "
                f"must be bit-identical to boot-then-run"
            )
    if serial["wall_seconds"] > 0 and warm["wall_seconds"] > 0:
        saving = 1.0 - warm["wall_seconds"] / serial["wall_seconds"]
        print(f"warm-start table1 runner boot-time saving: {saving:+.0%} "
              f"({serial['wall_seconds']:.2f}s cold -> "
              f"{warm['wall_seconds']:.2f}s warm)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="baseline JSON path (default: repo root)")
    parser.add_argument("--iters-scale", type=float, default=1.0,
                        help="scale on per-workload iteration counts; "
                        "determinism checks only apply at the baseline's scale")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "REPRO_SIMSPEED_TOLERANCE", perf.DEFAULT_TOLERANCE)),
                        help="allowed wall-clock slowdown fraction")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measure each workload N times and gate on the "
                        "best run (wall clock is noisy; simulation is not)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with this run's numbers")
    parser.add_argument("--min-parallel-speedup", type=float,
                        default=float(os.environ.get(
                            "REPRO_MIN_PARALLEL_SPEEDUP", "2.0")),
                        help="required table1 runner speedup at jobs=4 "
                        "(gated only on hosts with >= 4 cores)")
    args = parser.parse_args(argv)

    results = perf.run_simspeed(iters_scale=args.iters_scale,
                                repeats=args.repeats)
    print(perf.format_report(results))

    if args.update:
        perf.write_report(results, args.baseline, iters_scale=args.iters_scale)
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline_path = pathlib.Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run with --update to create one")
        return 1
    baseline = perf.load_report(str(baseline_path))
    current = perf.report_as_dict(results, iters_scale=args.iters_scale)
    failures = perf.compare_to_baseline(current, baseline,
                                        tolerance=args.tolerance)
    failures += runner_failures(current, baseline,
                                min_speedup=args.min_parallel_speedup)
    failures += macroop_failures(current, baseline)
    failures += warmstart_failures(current, baseline)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"ok: all workloads within {args.tolerance:.0%} of "
          f"{baseline_path.name} and deterministically identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
