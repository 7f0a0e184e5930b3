"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — describe the simulated platform and the three system
  configurations.
* ``table1`` — regenerate Table 1 (LMbench kernel operations).
* ``figure6`` — regenerate Figure 6 (application benchmarks).
* ``table2`` — regenerate Table 2 (monitoring granularity).

  These three and ``report`` exit non-zero when the monitoring pipeline
  lost events in any cell, cached or computed, unless the check is
  ``--waive``d (``tests/test_obs.py::TestPayloadIntegrity``).
* ``attacks`` — run the attack/protection matrix and print verdicts.
* ``audit`` — build a monitored Hypernel system, run a workload and
  verify every security invariant through both channels: the live
  auditor, and the offline checker on evidence captured from the same
  machine; then print the differential gate's verdict on the pair.
* ``metrics`` — run a monitored workload and print the full
  observability report: component counters, gauges, cycle attribution
  and the run-integrity checks (repro.obs).  Exits non-zero when the
  monitoring pipeline lost events, unless the check is ``--waive``d.
* ``fuzz`` — adversarial hypercall fuzzing of Hypersec
  (repro.security.fuzz): a Hypothesis state machine drives random
  hypercall/trapped-register/attack sequences against a booted
  machine, predicts every verdict from the shared invariant spec, and
  cross-checks the live auditor against the snapshot-grounded
  differential gate after every example.  ``--corpus DIR`` replays
  recorded traces instead.
* ``cache`` — inspect (``cache info``) or garbage-collect
  (``cache prune``) the content-addressed result cache.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from typing import List, Optional

from repro.config import PlatformConfig
from repro.errors import IntegrityError


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _finite_float(allow_zero: bool):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {text!r}") from None
        in_range = value >= 0 if allow_zero else value > 0
        if not (math.isfinite(value) and in_range):
            raise argparse.ArgumentTypeError(
                f"must be a {'non-negative' if allow_zero else 'positive'} "
                f"number, got {text}")
        return value
    return parse


class _UsageError(Exception):
    """Arguments that parse one by one but not together; ``main``
    reports it as the command's usage error (exit 2)."""


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)
_positive_float = _finite_float(allow_zero=False)
_nonnegative_float = _finite_float(allow_zero=True)


def _platform_config(args) -> PlatformConfig:
    return _platform_for(args.dram_mb)


def _platform_for(dram_mb: int) -> PlatformConfig:
    return PlatformConfig(
        dram_bytes=dram_mb * 1024 * 1024,
        secure_bytes=max(16, dram_mb // 8) * 1024 * 1024,
    )


def _boots(dram_mb: int) -> bool:
    base, limit = _platform_for(dram_mb).page_pool()
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
    parser.add_argument("--dram-mb", type=_dram_mb, default=192,
                        help="simulated DRAM size in MB (default 192)")


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
    _add_waive(parser)


def _integrity_check_name(text: str) -> str:
    from repro.obs.metrics import INTEGRITY_CHECK_SPECS

    known = [f"{component}.{counter}"
             for component, counter, _ in INTEGRITY_CHECK_SPECS]
    if text not in known:
        raise argparse.ArgumentTypeError(
            f"unknown integrity check {text!r}; known checks: "
            + ", ".join(known))
    return text


def _add_waive(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--waive", action="append", default=[],
                        type=_integrity_check_name, metavar="CHECK",
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
    metrics = collect_metrics(system, waive=tuple(args.waive))
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
        save_trace,
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
                  f"{args.steps} steps each, seed {args.seed} ...")
            try:
                merge(run_fuzz(profile=profile, seed=args.seed,
                               max_examples=share, steps=args.steps))
            except FuzzViolation as exc:
                failure = f"[{profile}] {exc}"
                merge(FUZZ_STATS)
            except Exception as exc:  # noqa: BLE001 — a crash IS a finding
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
    parser.add_argument("--steps", type=_positive_int, default=8,
                        help="rules per example (default 8)")
    parser.add_argument("--corpus", default=None, metavar="DIR",
                        help="replay every recorded trace in DIR instead "
                        "of running the random state machine")
    parser.add_argument("--save-failing", default=None, metavar="PATH",
                        help="save the minimized failing trace as a "
                        "corpus file")


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
    prune.add_argument("--max-age", type=_nonnegative_float, default=None,
                       metavar="DAYS",
                       help="drop entries older than DAYS (0 drops every "
                       "entry)")
    prune.add_argument("--max-bytes", type=_nonnegative_int, default=None,
                       help="evict oldest entries until the cache fits "
                       "in this many bytes (0 empties it)")


#: command name -> (handler, extra-argument installers).
_COMMANDS = {
    "info": (cmd_info, [_add_platform]),
    "table1": (cmd_table1, [_add_platform, _add_runner]),
    "figure6": (cmd_figure6, [_add_platform, _add_scale, _add_runner]),
    "table2": (cmd_table2, [_add_platform, _add_scale, _add_runner]),
    "attacks": (cmd_attacks, [_add_platform]),
    "audit": (cmd_audit, [_add_platform, _add_scale]),
    "fuzz": (cmd_fuzz, [_add_fuzz_args]),
    "metrics": (cmd_metrics, [_add_platform, _add_scale, _add_waive]),
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
