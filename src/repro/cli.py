"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — describe the simulated platform and the three system
  configurations.
* ``table1`` — regenerate Table 1 (LMbench kernel operations).
* ``figure6`` — regenerate Figure 6 (application benchmarks).
* ``table2`` — regenerate Table 2 (monitoring granularity).

  These three and ``report`` exit non-zero when the monitoring pipeline
  lost events in any cell, cached or computed, unless the check is
  ``--waive``d.
* ``attacks`` — run the attack/protection matrix and print verdicts.
* ``audit`` — build a monitored Hypernel system, run a workload and
  verify every security invariant against live machine state; with
  ``--snapshot PATH``, audit a restored machine image instead.
* ``metrics`` — run a monitored workload (or restore a snapshot with
  ``--snapshot``) and print the full observability report: component
  counters, gauges, cycle attribution and the run-integrity checks
  (repro.obs).  Exits non-zero when the monitoring pipeline lost
  events, unless the check is ``--waive``d; ``--json PATH`` exports
  the report as JSONL.
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
* ``cache`` — inspect (``cache info``) or garbage-collect
  (``cache prune``) the content-addressed result cache.
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_runner(parser: argparse.ArgumentParser) -> None:
    _add_macroops(parser)
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="worker processes for independent experiment "
                        "cells (default: every CPU this process may run "
                        "on; 1 = serial in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell, bypassing the "
                        "content-addressed result cache")
    _add_waive(parser)


def _add_waive(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--waive", action="append", default=[],
                        metavar="CHECK",
                        help="accept a named integrity check (e.g. "
                        "mbm_fifo.overrun) instead of failing the run "
                        "when the monitoring pipeline lost events; "
                        "repeatable")


def _runner_kwargs(args):
    from repro.tools.runner import CellCache, default_cache_dir

    cache = None if args.no_cache else CellCache(default_cache_dir())
    return {"platform_config": _platform_config(args), "jobs": args.jobs,
            "cache": cache, "waive": tuple(args.waive)}


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

    print(run_table1(**_runner_kwargs(args)).format())
    return 0


def cmd_figure6(args) -> int:
    from repro.analysis.figures import run_figure6

    print(run_figure6(scale=args.scale, **_runner_kwargs(args)).format())
    return 0


def cmd_table2(args) -> int:
    from repro.analysis.monitoring import run_table2

    print(run_table2(scale=args.scale, **_runner_kwargs(args)).format())
    return 0


def cmd_attacks(args) -> int:
    from repro.attacks import (
        AtraAttack,
        CredEscalationAttack,
        DentryHijackAttack,
        DmaAttack,
        HypercallAbuseAttack,
        MmuDisableAttack,
        PageTableTamperAttack,
        TtbrSwitchAttack,
        run_attack_matrix,
    )

    matrix = run_attack_matrix(
        [CredEscalationAttack, DentryHijackAttack, PageTableTamperAttack,
         TtbrSwitchAttack, MmuDisableAttack, HypercallAbuseAttack,
         AtraAttack, DmaAttack],
        _platform_config(args),
    )
    for system_name, outcomes in matrix.items():
        print(f"\n=== {system_name} ===")
        for outcome in outcomes:
            verdict = ("BLOCKED" if outcome.blocked
                       else "detected" if outcome.detected
                       else "SILENT SUCCESS")
            print(f"  {outcome.attack:18s} {verdict}")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    print(generate_report(scale=args.scale, **_runner_kwargs(args)))
    return 0


def _system_under_test(args):
    """The machine ``audit`` and ``metrics`` examine: the ``--snapshot``
    image, or a fresh monitored Hypernel system after an untar run.

    Returns ``None``, having printed the error, when the snapshot cannot
    be restored.
    """
    if args.snapshot:
        from repro.errors import SnapshotError
        from repro.state import restore_system

        try:
            return restore_system(args.snapshot)
        except (SnapshotError, FileNotFoundError) as exc:
            print(f"error: {exc}")
            return None

    from repro.core.hypernel import build_hypernel
    from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor
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
    return system


def cmd_audit(args) -> int:
    system = _system_under_test(args)
    if system is None:
        return 1
    if args.snapshot:
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


def _add_audit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="audit a restored machine image instead of "
                        "building and exercising a fresh system")


def cmd_metrics(args) -> int:
    from repro.obs import collect_metrics, metrics_records, write_jsonl

    system = _system_under_test(args)
    if system is None:
        return 1
    if args.snapshot:
        print(f"metrics for restored {system.name} image ({args.snapshot})")
    try:
        metrics = collect_metrics(system, waive=tuple(args.waive))
    except IntegrityError as exc:  # unknown waiver name
        print(f"error: {exc}")
        return 1
    print(metrics.format())
    if args.json:
        count = write_jsonl(args.json, metrics_records(metrics))
        print(f"\n[{count} records written to {args.json}]")
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
    _add_waive(parser)


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
        print(f"cache directory: {inventory['directory']}")
        print(f"  result entries: {len(entries)} "
              f"({inventory['total_bytes']} bytes)")
        if args.verbose:
            for entry in sorted(entries, key=lambda e: e["mtime"]):
                age_days = (time.time() - entry["mtime"]) / 86400.0
                print(f"  {entry['bytes']:>10d} B {age_days:6.1f} d  "
                      f"{entry['path']}")
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
        "info", help="summarize cached results")
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
