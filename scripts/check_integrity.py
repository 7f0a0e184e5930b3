#!/usr/bin/env python3
"""Zero-loss integrity gate.

Runs one small Table 1 and Table 2 cell sweep through the experiment
runner, which enforces run integrity on every cell (``repro.obs``): the
gate fails loudly (exit 1) if any cell's MBM pipeline lost events —
FIFO overrun, capture drops, ring overflow — or recorded a write-back
hazard, or if no cell reported integrity checks at all.  A lossy
monitoring pipeline silently undercounts Table 2 and skews the paper's
overhead numbers, so CI treats loss as a hard failure, not a statistic.

The sweep runs twice: in-process (``jobs=1``) and fanned out over a
process pool (``jobs=2``; both grids have more than one cell, so the
pool really runs), to prove the enforcement point in ``run_cells``
covers both dispatch paths, including payloads that came back from a
worker process.

With ``--jsonl PATH`` the gate instead replays over a file of metrics
records (one ``{"label": ..., "metrics": {...}}`` object per line, as
appended by ``python -m repro fuzz --jsonl PATH``): every record's
integrity checks must pass, and the file must not be vacuous.  This is
how CI proves a fuzz run kept its violation counters at zero.

Usage::

    PYTHONPATH=src python scripts/check_integrity.py           # gate
    PYTHONPATH=src python scripts/check_integrity.py --ops null-call
    PYTHONPATH=src python scripts/check_integrity.py --jsonl fuzz.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.monitoring import run_table2
from repro.analysis.tables import run_table1
from repro.config import PlatformConfig
from repro.errors import IntegrityError
from repro.obs import verify_payload_integrity


def gate_jsonl(path: str, waive: tuple = ()) -> int:
    """Gate a file of metrics records (see module docstring)."""
    labels = []
    payloads = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"FAIL: {path}:{line_no}: not JSON: {exc}")
                return 1
            labels.append(str(record.get("label", f"record{line_no}")))
            payloads.append({"metrics": record.get("metrics") or {}})
    checked = sum(
        len(payload["metrics"].get("checks", [])) for payload in payloads
    )
    if not checked:
        print(f"FAIL: {path}: gate is vacuous — no record carries "
              f"integrity checks")
        return 1
    try:
        verify_payload_integrity(labels, payloads, waive=waive)
    except IntegrityError as exc:
        print(f"INTEGRITY FAILURE: {exc}")
        return 1
    print(f"integrity ok — {checked} checks across {len(labels)} "
          f"record(s): {', '.join(labels)}")
    return 0


def small_platform() -> PlatformConfig:
    return PlatformConfig(
        dram_bytes=64 * 1024 * 1024, secure_bytes=8 * 1024 * 1024
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ops", nargs="+", default=["syscall stat", "signal install"],
        help="LMbench ops for the gate cell (default: a fast pair)",
    )
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="workload scale for the monitored (table2) leg",
    )
    parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="gate a file of metrics records instead of "
        "running the sweep (one {label, metrics} object per line)",
    )
    parser.add_argument(
        "--waive", action="append", default=[], metavar="CHECK",
        help="accept a named integrity check; repeatable",
    )
    args = parser.parse_args(argv)

    if args.jsonl:
        return gate_jsonl(args.jsonl, waive=tuple(args.waive))

    failures = 0
    for label, jobs in (("serial", 1), ("pool", 2)):
        try:
            table1 = run_table1(
                platform_config=small_platform(),
                ops=args.ops,
                warmup=args.warmup,
                iterations=args.iterations,
                jobs=jobs,
            )
            # Table 1 runs Hypersec-only (no MBM), so its checks are
            # vacuous; the table2 leg drives the full MBM pipeline and
            # is the part of the gate that can actually trip.
            table2 = run_table2(
                scale=args.scale,
                platform_config=small_platform(),
                jobs=jobs,
            )
        except IntegrityError as exc:
            print(f"[{label}] INTEGRITY FAILURE: {exc}")
            failures += 1
            continue
        checked = 0
        for result in (table1, table2):
            for environment, data in sorted(result.health.items()):
                checks = data.get("checks", [])
                checked += len(checks)
                if checks:
                    detail = ", ".join(
                        f"{c['component']}.{c['counter']}={c['value']}"
                        for c in checks
                    )
                    print(f"  [{label}] {environment}: {detail}")
        if not checked:
            print(f"[{label}] gate is vacuous: no cell reported "
                  f"integrity checks")
            failures += 1
            continue
        cells = ", ".join(
            sorted(set(table1.health) | set(table2.health))
        )
        print(f"[{label}] integrity ok — zero event loss across: {cells}")

        # Macro-op memoizer counters (repro.tools.macroops): every
        # replayed cycle must have passed its constructive integrity
        # check — a hit without a recorded check would mean effects
        # were applied unverified.
        memo = {"hits": 0, "misses": 0, "integrity_checks": 0,
                "replay_divergence": 0, "replayed_sim_cycles": 0}
        seen = False
        for result in (table1, table2):
            for data in result.health.values():
                counters = data.get("components", {}).get("macroops")
                if counters is None:
                    continue
                seen = True
                for key in memo:
                    memo[key] += counters.get(key, 0)
        if seen:
            print(f"  [{label}] macroops: " + ", ".join(
                f"{key}={value}" for key, value in memo.items()
            ))
            if memo["hits"] > 0 and memo["integrity_checks"] == 0:
                print(f"[{label}] INTEGRITY FAILURE: macro-op replays "
                      f"occurred without a single constructive "
                      f"integrity check")
                failures += 1
            if memo["replay_divergence"] > memo["integrity_checks"]:
                print(f"[{label}] INTEGRITY FAILURE: more replay "
                      f"divergences than checks recorded — the memoizer's "
                      f"accounting is inconsistent")
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
