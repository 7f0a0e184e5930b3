"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — describe the simulated platform and the three system
  configurations.
* ``table1`` — regenerate Table 1 (LMbench kernel operations).
* ``figure6`` — regenerate Figure 6 (application benchmarks).
* ``table2`` — regenerate Table 2 (monitoring granularity).
* ``attacks`` — run the attack/protection matrix and print verdicts.
* ``audit`` — build a monitored Hypernel system, run a workload and
  verify every security invariant against live machine state; with
  ``--snapshot PATH``, audit a restored machine image instead.
* ``metrics`` — run a monitored workload (or restore a snapshot with
  ``--snapshot``) and print the full observability report: component
  counters, gauges, cycle attribution and the run-integrity checks
  (repro.obs).  Exits non-zero when the monitoring pipeline lost
  events, unless ``--no-enforce`` or the check is ``--waive``d;
  ``--json PATH`` exports the report as JSONL.
* ``fuzz`` — adversarial hypercall fuzzing of Hypersec
  (repro.security.fuzz): a Hypothesis state machine drives random
  hypercall/trapped-register/attack sequences against a booted
  machine, predicts every verdict from the shared invariant spec, and
  cross-checks the live auditor against the snapshot-grounded
  differential gate after every example.  ``--corpus DIR`` replays
  recorded traces instead; ``--jsonl PATH`` streams the run's
  violation counters as an integrity record for
  ``scripts/check_integrity.py --jsonl``.
* ``snapshot`` — save/restore/inspect/diff machine checkpoints
  (``repro.state``): ``snapshot save``, ``snapshot restore``,
  ``snapshot info``, ``snapshot diff``.
* ``bench-simspeed`` — measure simulation wall-clock throughput
  (simulated accesses per second) and write ``BENCH_simspeed.json``.
* ``cache`` — inspect (``cache info``) or garbage-collect
  (``cache prune``) the content-addressed result cache and its
  warm-start boot snapshots.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.config import PlatformConfig
from repro.errors import IntegrityError


def _platform_config(args) -> PlatformConfig:
    return PlatformConfig(
        dram_bytes=args.dram_mb * 1024 * 1024,
        secure_bytes=max(16, args.dram_mb // 8) * 1024 * 1024,
    )


def _add_platform(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dram-mb", type=int, default=192,
                        help="simulated DRAM size in MB (default 192)")


def _add_scale(parser: argparse.ArgumentParser) -> None:
    # Only registered for commands that actually consume it; ``table1``
    # runs fixed LMbench op counts and takes no scale.
    parser.add_argument("--scale", type=float, default=0.25,
                        help="workload scale factor (default 0.25)")


def _add_macroops(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-macroops", action="store_true",
                        help="disable macro-op memoization (replay of "
                        "detected periodic kernel-op cycles); results "
                        "are bit-identical either way, only wall clock "
                        "changes — equivalent to REPRO_MACROOPS=0")


def _add_runner(parser: argparse.ArgumentParser) -> None:
    _add_macroops(parser)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent experiment "
                        "cells (default 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell, bypassing the "
                        "content-addressed result cache")
    parser.add_argument("--warm-start", action="store_true",
                        help="restore each cell's system from a shared "
                        "post-boot snapshot instead of booting it "
                        "(bit-identical results, boot cost paid once)")
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "forkserver", "pool", "serial"],
                        help="cell execution backend: forkserver (warm "
                        "servers fork copy-on-write workers), pool "
                        "(process pool), serial, or auto (forkserver when "
                        "available and --jobs > 1; overridable via "
                        "REPRO_BENCH_BACKEND)")
    parser.add_argument("--enforce-integrity", action="store_true",
                        help="fail the run if the monitoring pipeline "
                        "lost events in any cell (FIFO overrun, ring "
                        "overflow — see repro.obs); cached results are "
                        "checked too")
    parser.add_argument("--waive", action="append", default=[],
                        metavar="CHECK",
                        help="accept a named integrity check (e.g. "
                        "mbm_fifo.overrun); repeatable")


def _runner_kwargs(args):
    from repro.tools.runner import CellCache, default_cache_dir

    cache = None if args.no_cache else CellCache(default_cache_dir())
    return {"jobs": args.jobs, "cache": cache,
            "warm_start": args.warm_start, "backend": args.backend,
            "enforce_integrity": args.enforce_integrity,
            "waive": tuple(args.waive)}


def cmd_info(args) -> int:
    from repro.core.hypernel import build_system

    config = _platform_config(args)
    print("Hypernel reproduction — simulated platform")
    print(f"  CPU: Cortex-A57-like @ {config.cpu_freq_hz / 1e9:.2f} GHz")
    print(f"  DRAM: {config.dram_bytes // (1 << 20)} MB at {config.dram_base:#x}")
    print(f"  secure region: {config.secure_bytes // (1 << 20)} MB at "
          f"{config.secure_base:#x}")
    print(f"  TLB: {config.tlb_entries} entries; stage-2 TLB: "
          f"{config.stage2_tlb_entries}")
    print(f"  caches: L1 {config.l1_bytes >> 10} KB / L2 {config.l2_bytes >> 20} MB")
    print()
    for name in ("native", "kvm-guest", "hypernel"):
        system = build_system(name, platform_config=_platform_config(args))
        system.spawn_init()
        print(f"  {name:10s} linear map: {system.kernel.linear_map.mode:8s}"
              f" stage2: {str(system.cpu.regs.stage2_enabled):5s}"
              f" TVM: {system.cpu.regs.tvm_enabled}")
    return 0


def cmd_table1(args) -> int:
    from repro.analysis.tables import run_table1

    result = run_table1(
        platform_factory=lambda: _platform_config(args), **_runner_kwargs(args)
    )
    print(result.format())
    return 0


def cmd_figure6(args) -> int:
    from repro.analysis.figures import run_figure6

    result = run_figure6(
        scale=args.scale, platform_factory=lambda: _platform_config(args),
        **_runner_kwargs(args)
    )
    print(result.format())
    return 0


def cmd_table2(args) -> int:
    from repro.analysis.monitoring import run_table2

    result = run_table2(
        scale=args.scale, platform_factory=lambda: _platform_config(args),
        **_runner_kwargs(args)
    )
    print(result.format())
    return 0


def cmd_attacks(args) -> int:
    from repro.core.hypernel import build_hypernel, build_native
    from repro.kernel.kernel import KernelConfig
    from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor
    from repro.attacks import (
        AtraAttack,
        CredEscalationAttack,
        DentryHijackAttack,
        DmaAttack,
        HypercallAbuseAttack,
        MmuDisableAttack,
        PageTableTamperAttack,
        TtbrSwitchAttack,
    )

    def victim_on(system):
        kernel = system.kernel
        init = system.spawn_init()
        target = kernel.sys.fork(init)
        kernel.procs.context_switch(target)
        kernel.sys.setuid(target, 1000)
        kernel.vfs.mkdir_p("/etc")
        kernel.sys.creat(target, "/etc/passwd")
        return target

    builders = {
        "native": lambda: build_native(
            platform_config=_platform_config(args),
            kernel_config=KernelConfig(linear_map_mode="page"),
        ),
        "hypernel": lambda: build_hypernel(
            platform_config=_platform_config(args),
            monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
        ),
    }
    for system_name, builder in builders.items():
        system = builder()
        victim = victim_on(system)
        print(f"\n=== {system_name} ===")
        scenarios = [
            CredEscalationAttack().mount(system, victim),
            DentryHijackAttack().mount(system, "/etc/passwd"),
            PageTableTamperAttack().mount(system),
            TtbrSwitchAttack().mount(system),
            MmuDisableAttack().mount(system),
            HypercallAbuseAttack().mount(system),
            AtraAttack().mount(system, victim),
            DmaAttack().mount(system),
        ]
        for outcome in scenarios:
            verdict = ("BLOCKED" if outcome.blocked
                       else "detected" if outcome.detected
                       else "SILENT SUCCESS")
            print(f"  {outcome.attack:18s} {verdict}")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    print(generate_report(
        scale=args.scale,
        platform_factory=lambda: _platform_config(args),
        **_runner_kwargs(args),
    ))
    return 0


def cmd_audit(args) -> int:
    from repro.core.hypernel import build_hypernel
    from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor
    from repro.workloads.apps import UntarWorkload

    if args.snapshot:
        from repro.errors import SnapshotError
        from repro.state import restore_system

        try:
            system = restore_system(args.snapshot)
        except (SnapshotError, FileNotFoundError) as exc:
            print(f"error: {exc}")
            return 1
        if system.hypersec is None:
            print(f"error: snapshot holds a {system.name!r} system; only "
                  "hypernel images can be audited")
            return 1
        print(f"auditing restored {system.name} image "
              f"({args.snapshot}) ...")
        if system.mbm is not None:
            print(f"  MBM events: {system.mbm.events_detected}, alerts: "
                  f"{sum(len(m.alerts) for m in system.monitors)}")
        report = system.hypersec.audit()
        print(report)
        return 0 if report.clean else 1

    system = build_hypernel(
        platform_config=_platform_config(args),
        monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
    )
    shell = system.spawn_init()
    print("running a workload under full monitoring ...")
    app = UntarWorkload(args.scale)
    app.prepare(system, shell)
    app.run(system, shell)
    print(f"  MBM events: {system.mbm.events_detected}, alerts: "
          f"{sum(len(m.alerts) for m in system.monitors)}")
    report = system.hypersec.audit()
    print(report)
    return 0 if report.clean else 1


def _add_audit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="audit a restored machine image instead of "
                        "building and exercising a fresh system")


def cmd_metrics(args) -> int:
    from repro.obs import collect_metrics, metrics_records, write_jsonl

    waive = tuple(args.waive)
    if args.snapshot:
        from repro.errors import IntegrityError, SnapshotError
        from repro.state import restore_system

        try:
            system = restore_system(args.snapshot)
        except (SnapshotError, FileNotFoundError) as exc:
            print(f"error: {exc}")
            return 1
        print(f"metrics for restored {system.name} image ({args.snapshot})")
        try:
            metrics = collect_metrics(system, waive=waive)
        except IntegrityError as exc:  # unknown waiver name
            print(f"error: {exc}")
            return 1
    else:
        from repro.core.hypernel import build_hypernel
        from repro.errors import IntegrityError
        from repro.security import (
            CredIntegrityMonitor,
            DentryIntegrityMonitor,
        )
        from repro.workloads.apps import UntarWorkload

        system = build_hypernel(
            platform_config=_platform_config(args),
            monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
        )
        shell = system.spawn_init()
        print("running a workload under full monitoring ...")
        app = UntarWorkload(args.scale)
        app.prepare(system, shell)
        app.run(system, shell)
        try:
            metrics = collect_metrics(system, waive=waive)
        except IntegrityError as exc:
            print(f"error: {exc}")
            return 1
    print(metrics.format())
    if args.json:
        count = write_jsonl(args.json, metrics_records(metrics))
        print(f"\n[{count} records written to {args.json}]")
    if args.no_enforce:
        return 0
    failures = metrics.failures
    if failures:
        detail = ", ".join(f"{c.name} = {c.value}" for c in failures)
        print(f"\nINTEGRITY FAILURE: {detail}")
        return 1
    return 0


def _add_metrics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="collect metrics from a restored machine "
                        "image instead of running a fresh workload")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSONL records")
    parser.add_argument("--waive", action="append", default=[],
                        metavar="CHECK",
                        help="accept a named integrity check (e.g. "
                        "mbm_fifo.overrun); repeatable")
    parser.add_argument("--no-enforce", action="store_true",
                        help="report integrity failures without failing "
                        "the exit status")


def cmd_fuzz(args) -> int:
    from repro.security.fuzz.machine import (
        FUZZ_STATS,
        LAST_TRACE,
        PROFILES,
        FuzzViolation,
        replay_corpus,
        run_fuzz,
        save_trace,
    )

    profiles = list(PROFILES) if args.profile == "both" else [args.profile]
    totals: dict = {}
    crashes = 0
    failure: Optional[str] = None
    started = time.time()

    def merge(stats: dict) -> None:
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value

    if args.corpus:
        print(f"replaying corpus {args.corpus} ...")
        try:
            merge(replay_corpus(args.corpus))
        except FuzzViolation as exc:
            failure = str(exc)
            merge(FUZZ_STATS)
    else:
        per_profile = max(1, args.max_examples // len(profiles))
        for profile in profiles:
            print(f"fuzzing {profile!r} profile: {per_profile} examples, "
                  f"{args.steps} steps each, seed {args.seed} ...")
            try:
                merge(run_fuzz(profile=profile, seed=args.seed,
                               max_examples=per_profile, steps=args.steps))
            except FuzzViolation as exc:
                failure = f"[{profile}] {exc}"
                merge(FUZZ_STATS)
            except Exception as exc:  # noqa: BLE001 — a crash IS a finding
                crashes += 1
                failure = f"[{profile}] machine crashed: {exc!r}"
                merge(FUZZ_STATS)
            if failure:
                if LAST_TRACE:
                    print("minimized reproducer:")
                    print(json.dumps([e["op"] for e in LAST_TRACE],
                                     indent=2, sort_keys=True))
                if args.save_failing:
                    save_trace(args.save_failing, profile,
                               note="minimized by hypothesis shrinking")
                    print(f"reproducer saved to {args.save_failing}")
                break

    elapsed = time.time() - started
    vacuous = 0 if totals.get("ops") else 1
    print(f"\n{totals.get('examples', 0)} example(s), "
          f"{totals.get('ops', 0)} operation(s), "
          f"{totals.get('differential_gates', 0)} differential gate(s) "
          f"in {elapsed:.1f}s")
    for key in sorted(totals):
        print(f"  {key}: {totals[key]}")
    if failure:
        print(f"\nFUZZ FAILURE: {failure}")
    else:
        print("\nfuzz clean: every verdict matched the invariant spec and "
              "both verification channels agree")

    if args.jsonl:
        violations = (totals.get("violations", 0)
                      + totals.get("differential_disagreements", 0))
        if failure and not violations and not crashes:
            violations = 1  # a failure always fails the gate
        checks = [
            {"component": "fuzz", "counter": "violations",
             "value": violations, "waived": False,
             "description": "verdict/invariant disagreements (live audit "
             "or differential gate)"},
            {"component": "fuzz", "counter": "crashes",
             "value": crashes, "waived": False,
             "description": "unhandled exceptions while fuzzing"},
            {"component": "fuzz", "counter": "vacuous_runs",
             "value": vacuous, "waived": False,
             "description": "runs that executed no operations"},
        ]
        record = {
            "label": f"fuzz-{args.profile}",
            "metrics": {
                "system": "hypernel",
                "sim_cycles": 0,
                "components": {"fuzz": {
                    key.replace(".", "_"): value
                    for key, value in sorted(totals.items())
                }},
                "checks": checks,
            },
        }
        with open(args.jsonl, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"integrity record appended to {args.jsonl}")

    return 1 if (failure or vacuous) else 0


def _add_fuzz_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="both",
                        choices=["section", "page", "both"],
                        help="linear-map mode of the machine under test "
                        "(default both, splitting --max-examples)")
    parser.add_argument("--seed", type=int, default=0,
                        help="Hypothesis seed (default 0; runs are "
                        "deterministic per seed)")
    parser.add_argument("--max-examples", type=int, default=100,
                        help="total state-machine examples across the "
                        "selected profiles (default 100)")
    parser.add_argument("--steps", type=int, default=8,
                        help="rules per example (default 8)")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="replay every recorded trace in DIR instead "
                        "of running the random state machine")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="append an integrity record for "
                        "scripts/check_integrity.py --jsonl")
    parser.add_argument("--save-failing", default=None, metavar="PATH",
                        help="save the minimized failing trace as a "
                        "corpus file")


def cmd_snapshot(args) -> int:
    from repro.errors import SnapshotError
    from repro.state import (
        diff_snapshots,
        restore_system,
        save_snapshot,
        snapshot_info,
    )

    try:
        if args.action == "save":
            from repro.core.hypernel import build_system

            kwargs = {"platform_config": _platform_config(args)}
            if args.system == "hypernel" and args.monitored:
                from repro.security import (
                    CredIntegrityMonitor,
                    DentryIntegrityMonitor,
                )

                kwargs["monitors"] = [CredIntegrityMonitor(),
                                      DentryIntegrityMonitor()]
            system = build_system(args.system, **kwargs)
            snapshot = save_snapshot(system, args.path)
            print(f"saved {args.system} snapshot to {args.path}")
            print(f"  content hash: {snapshot.content_hash}")
            return 0
        if args.action == "restore":
            system = restore_system(args.path)
            print(f"restored {system.name} system from {args.path}")
            for key, value in system.stats_summary().items():
                print(f"  {key}: {value}")
            return 0
        if args.action == "info":
            print(snapshot_info(args.path))
            return 0
        if args.action == "diff":
            print(diff_snapshots(args.path_a, args.path_b))
            return 0
    except (SnapshotError, FileNotFoundError) as exc:
        print(f"error: {exc}")
        return 1
    raise AssertionError(f"unhandled snapshot action {args.action!r}")


def _add_snapshot_args(parser: argparse.ArgumentParser) -> None:
    actions = parser.add_subparsers(dest="action", required=True)
    save = actions.add_parser(
        "save", help="boot a system and write a post-boot snapshot")
    save.add_argument("path", help="snapshot file to write")
    save.add_argument("--system", default="hypernel",
                      choices=["native", "kvm-guest", "hypernel"])
    save.add_argument("--monitored", action="store_true",
                      help="include the cred+dentry monitors (hypernel)")
    _add_platform(save)
    restore = actions.add_parser(
        "restore", help="restore a snapshot and print its machine state")
    restore.add_argument("path", help="snapshot file to read")
    info = actions.add_parser(
        "info", help="print a snapshot's manifest without restoring")
    info.add_argument("path", help="snapshot file to read")
    diff = actions.add_parser(
        "diff", help="report which sections/words differ between two "
        "snapshots")
    diff.add_argument("path_a")
    diff.add_argument("path_b")


def cmd_cache(args) -> int:
    from repro.tools.runner import cache_contents, default_cache_dir, prune_cache

    directory = args.dir or default_cache_dir()
    if args.action == "info":
        inventory = cache_contents(directory)
        entries = inventory["entries"]
        results = [e for e in entries if e["kind"] == "result"]
        snapshots = [e for e in entries if e["kind"] == "snapshot"]
        print(f"cache directory: {inventory['directory']}")
        print(f"  result entries: {len(results)} "
              f"({sum(e['bytes'] for e in results)} bytes)")
        print(f"  boot snapshots: {len(snapshots)} "
              f"({sum(e['bytes'] for e in snapshots)} bytes)")
        print(f"  total: {len(entries)} files, {inventory['total_bytes']} bytes")
        if args.verbose:
            for entry in sorted(entries, key=lambda e: e["mtime"]):
                age_days = (time.time() - entry["mtime"]) / 86400.0
                print(f"  {entry['kind']:8s} {entry['bytes']:>10d} B "
                      f"{age_days:6.1f} d  {entry['path']}")
        return 0
    if args.action == "prune":
        removed = prune_cache(
            directory,
            max_age_days=args.max_age,
            max_bytes=args.max_bytes,
        )
        for path in removed:
            print(f"removed {path}")
        remaining = cache_contents(directory)
        print(f"pruned {len(removed)} entries; {len(remaining['entries'])} "
              f"remain ({remaining['total_bytes']} bytes)")
        return 0
    raise AssertionError(f"unhandled cache action {args.action!r}")


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    actions = parser.add_subparsers(dest="action", required=True)
    info = actions.add_parser(
        "info", help="summarize cached results and boot snapshots")
    info.add_argument("--dir", default=None,
                      help="cache directory (default REPRO_CACHE_DIR or "
                      "benchmarks/.cache)")
    info.add_argument("--verbose", action="store_true",
                      help="list every entry with size and age")
    prune = actions.add_parser(
        "prune", help="delete old entries; everything pruned is safely "
        "recomputable (content-addressed)")
    prune.add_argument("--dir", default=None,
                       help="cache directory (default REPRO_CACHE_DIR or "
                       "benchmarks/.cache)")
    prune.add_argument("--max-age", type=float, default=None, metavar="DAYS",
                       help="drop entries older than DAYS")
    prune.add_argument("--max-bytes", type=int, default=None,
                       help="evict oldest entries until the cache fits "
                       "in this many bytes")


def cmd_bench_simspeed(args) -> int:
    from repro.tools import perf

    results = perf.run_simspeed(iters_scale=args.iters_scale,
                                repeats=args.repeats)
    print(perf.format_report(results))
    if args.output:
        perf.write_report(results, args.output, iters_scale=args.iters_scale)
        print(f"[saved to {args.output}]")
    if args.baseline:
        try:
            baseline = perf.load_report(args.baseline)
        except FileNotFoundError:
            print(f"error: baseline not found: {args.baseline}")
            return 1
        failures = perf.compare_to_baseline(
            perf.report_as_dict(results, iters_scale=args.iters_scale),
            baseline,
            tolerance=args.tolerance,
        )
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            return 1
        print(f"ok: within {args.tolerance:.0%} of {args.baseline}")
    return 0


def _add_simspeed_args(parser: argparse.ArgumentParser) -> None:
    _add_macroops(parser)
    parser.add_argument("--iters-scale", type=float, default=1.0,
                        help="scale factor on per-workload iteration counts")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per workload; the best is reported "
                        "(wall clock is noisy, simulation is not)")
    parser.add_argument("--output", default="BENCH_simspeed.json",
                        help="JSON report path ('' to skip writing)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to gate against (exit 1 on regression)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed wall-clock slowdown vs baseline (default 0.20)")


#: command name -> (handler, extra-argument installers).
_COMMANDS = {
    "info": (cmd_info, [_add_platform]),
    "table1": (cmd_table1, [_add_platform, _add_runner]),
    "figure6": (cmd_figure6, [_add_platform, _add_scale, _add_runner]),
    "table2": (cmd_table2, [_add_platform, _add_scale, _add_runner]),
    "attacks": (cmd_attacks, [_add_platform]),
    "audit": (cmd_audit, [_add_platform, _add_scale, _add_audit_args]),
    "fuzz": (cmd_fuzz, [_add_fuzz_args]),
    "metrics": (cmd_metrics, [_add_platform, _add_scale, _add_metrics_args]),
    "report": (cmd_report, [_add_platform, _add_scale, _add_runner]),
    "snapshot": (cmd_snapshot, [_add_snapshot_args]),
    "bench-simspeed": (cmd_bench_simspeed, [_add_simspeed_args]),
    "cache": (cmd_cache, [_add_cache_args]),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Hypernel (DAC 2018) reproduction harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (handler, installers) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=handler.__doc__)
        for add_args in installers:
            add_args(sub)
        sub.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    if getattr(args, "no_macroops", False):
        # Environment, not a parameter: the setting must reach worker
        # processes and every system built during the command.
        import os
        os.environ["REPRO_MACROOPS"] = "0"
    try:
        return args.handler(args)
    except IntegrityError as exc:
        print(f"INTEGRITY FAILURE: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
