"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — describe the simulated platform and the three system
  configurations.
* ``table1`` — regenerate Table 1 (LMbench kernel operations).
* ``figure6`` — regenerate Figure 6 (application benchmarks).
* ``table2`` — regenerate Table 2 (monitoring granularity).

  These three and ``report`` exit 1 when the monitoring pipeline lost
  events in any cell, cached or computed, naming the cell and check
  (``tests/test_obs.py::TestPayloadIntegrity``), and exit 1 with one
  stderr line naming the cell and cause when a cell fails.
* ``attacks`` — run the attack/protection matrix and print verdicts.
* ``audit`` — build a monitored Hypernel system, run a workload and
  verify every security invariant through both channels: the live
  auditor, and the offline checker on evidence captured from the same
  machine; then print the differential gate's verdict on the pair.
* ``metrics`` — run a monitored workload and print the full
  observability report: component counters, gauges, cycle attribution
  and the run-integrity checks (repro.obs).  Exits 1 when the
  monitoring pipeline lost events.
* ``fuzz`` — adversarial hypercall fuzzing of Hypersec
  (repro.security.fuzz): a Hypothesis state machine drives random
  hypercall/trapped-register/attack sequences against a booted
  machine, predicts every verdict from the shared invariant spec, and
  cross-checks the live auditor against the snapshot-grounded
  differential gate after every example.  A failure prints the
  shrunk reproducer as a corpus file; ``--corpus DIR`` replays the
  files saved under ``DIR`` instead.
* ``cache`` — inspect (``cache info``) or garbage-collect
  (``cache prune``) the content-addressed result cache in
  ``REPRO_CACHE_DIR`` (default ``benchmarks/.cache``).  Pruning deletes
  exactly the entries the current source can never hit: those written
  by a different source, and unreadable ones.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from typing import List, Optional

from repro.config import DEFAULT_DRAM_MB, PlatformConfig, platform_for
from repro.errors import IntegrityError, RunnerError


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}")
    return value


class _UsageError(Exception):
    """Arguments that parse one by one but not together; ``main``
    reports it as the command's usage error (exit 2)."""


#: Rules per fuzz example.
_FUZZ_STEPS = 8


def _platform_config(args) -> PlatformConfig:
    return platform_for(args.dram_mb)


def _boots(dram_mb: int) -> bool:
    base, limit = platform_for(dram_mb).page_pool()
    return base < limit


def _dram_mb(text: str) -> int:
    value = _positive_int(text)
    if not _boots(value):
        # Usable DRAM grows with --dram-mb, so the first size that
        # boots is the smallest.
        smallest = next(mb for mb in itertools.count(value + 1) if _boots(mb))
        raise argparse.ArgumentTypeError(
            f"{value} MB is too small to boot; the smallest size that "
            f"boots is {smallest} MB")
    return value


def _add_platform(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dram-mb", type=_dram_mb, default=DEFAULT_DRAM_MB,
                        help="simulated DRAM size in MB "
                             f"(default {DEFAULT_DRAM_MB})")


def _add_scale(parser: argparse.ArgumentParser) -> None:
    # Only registered for commands that actually consume it; ``table1``
    # runs fixed LMbench op counts and takes no scale.
    parser.add_argument("--scale", type=_positive_float, default=0.25,
                        help="workload scale factor (default 0.25)")


def _add_runner(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="worker processes for independent experiment "
                        "cells (default: every CPU this process may run "
                        "on; 1 = serial in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell, bypassing the "
                        "content-addressed result cache")


def _runner_kwargs(args):
    from repro.tools.runner import CellCache, default_cache_dir

    cache = None if args.no_cache else CellCache(default_cache_dir())
    return {"platform_config": _platform_config(args), "jobs": args.jobs,
            "cache": cache}


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
    """The machine ``audit`` and ``metrics`` examine: a fresh monitored
    Hypernel system after an untar run.  Tests substitute their own."""
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
    from repro.security.fuzz.differential import differential_audit

    system = _system_under_test(args)
    print(f"  MBM events: {system.mbm.events_detected}, alerts: "
          f"{sum(len(m.alerts) for m in system.monitors)}")
    result = differential_audit(system)
    print("live audit of the running machine:")
    print(result.live)
    print("offline check of the captured evidence:")
    print(result.offline)
    print(result)
    clean = result.live.clean and result.offline.clean and result.clean
    return 0 if clean else 1


def cmd_metrics(args) -> int:
    from repro.obs import collect_metrics

    system = _system_under_test(args)
    metrics = collect_metrics(system)
    print(metrics.format())
    failures = metrics.failures
    if failures:
        detail = ", ".join(f"{c.name} = {c.value}" for c in failures)
        print(f"\nINTEGRITY FAILURE: {detail}")
        return 1
    return 0


def cmd_fuzz(args) -> int:
    from repro.security.fuzz.machine import (
        FUZZ_STATS,
        LAST_TRACE,
        PROFILES,
        FuzzViolation,
        replay_corpus,
        run_fuzz,
        trace_document,
    )

    profiles = list(PROFILES) if args.profile == "both" else [args.profile]
    if not args.corpus and args.max_examples < len(profiles):
        raise _UsageError(
            f"argument --max-examples: {args.max_examples} is fewer than "
            f"the {len(profiles)} selected profiles; the minimum is "
            f"{len(profiles)}")
    totals: dict = {}
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
        # The shares add up to --max-examples; the earlier profile takes
        # the remainder.
        quotient, remainder = divmod(args.max_examples, len(profiles))
        for index, profile in enumerate(profiles):
            share = quotient + (index < remainder)
            print(f"fuzzing {profile!r} profile: {share} examples, "
                  f"{_FUZZ_STEPS} steps each, seed {args.seed} ...")
            try:
                merge(run_fuzz(profile=profile, seed=args.seed,
                               max_examples=share, steps=_FUZZ_STEPS))
            except FuzzViolation as exc:
                failure = f"[{profile}] {exc}"
                merge(FUZZ_STATS)
            except Exception as exc:  # noqa: BLE001 — a crash IS a finding
                failure = f"[{profile}] machine crashed: {exc!r}"
                merge(FUZZ_STATS)
            if failure:
                if LAST_TRACE:
                    # A corpus file as it stands: save it under DIR and
                    # ``--corpus DIR`` replays it.
                    print("minimized reproducer:")
                    document = trace_document(
                        profile, note="minimized by hypothesis shrinking")
                    print(json.dumps(document, indent=2, sort_keys=True))
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

    return 1 if (failure or vacuous) else 0


def _add_fuzz_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="both",
                        choices=["section", "page", "both"],
                        help="linear-map mode of the machine under test "
                        "(default both, splitting --max-examples)")
    parser.add_argument("--seed", type=int, default=0,
                        help="Hypothesis seed (default 0; runs are "
                        "deterministic per seed)")
    parser.add_argument("--max-examples", type=_positive_int, default=100,
                        help="total state-machine examples across the "
                        "selected profiles, split evenly with the "
                        "remainder going to the earlier profile; at "
                        "least one per profile (default 100)")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="replay every recorded trace in DIR instead "
                        "of running the random state machine")


def cmd_cache(args) -> int:
    from repro.tools.runner import cache_contents, prune_cache

    if args.action == "info":
        inventory = cache_contents()
        entries = inventory["entries"]
        print(f"cache directory: {inventory['directory']}")
        print(f"  result entries: {len(entries)} "
              f"({inventory['total_bytes']} bytes)")
        print(f"  stale entries: {sum(e['stale'] for e in entries)} "
              "(different source or unreadable; cache prune deletes them)")
        return 0
    if args.action == "prune":
        removed = prune_cache()
        for path in removed:
            print(f"removed {path}")
        remaining = cache_contents()
        print(f"pruned {len(removed)} entries; {len(remaining['entries'])} "
              f"remain ({remaining['total_bytes']} bytes)")
        return 0
    raise AssertionError(f"unhandled cache action {args.action!r}")


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    actions = parser.add_subparsers(dest="action", required=True)
    actions.add_parser(
        "info", help="summarize cached results (directory: "
        "REPRO_CACHE_DIR or benchmarks/.cache)")
    actions.add_parser(
        "prune", help="delete every entry the current source can never "
        "hit: written by a different source, or unreadable")


#: command name -> (handler, extra-argument installers).
_COMMANDS = {
    "info": (cmd_info, [_add_platform]),
    "table1": (cmd_table1, [_add_platform, _add_runner]),
    "figure6": (cmd_figure6, [_add_platform, _add_scale, _add_runner]),
    "table2": (cmd_table2, [_add_platform, _add_scale, _add_runner]),
    "attacks": (cmd_attacks, [_add_platform]),
    "audit": (cmd_audit, [_add_platform, _add_scale]),
    "fuzz": (cmd_fuzz, [_add_fuzz_args]),
    "metrics": (cmd_metrics, [_add_platform, _add_scale]),
    "report": (cmd_report, [_add_platform, _add_scale, _add_runner]),
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
    try:
        return args.handler(args)
    except _UsageError as exc:
        subparsers.choices[args.command].error(str(exc))
    except IntegrityError as exc:
        print(f"INTEGRITY FAILURE: {exc}")
        return 1
    except RunnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
