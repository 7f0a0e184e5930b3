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

Usage::

    PYTHONPATH=src python scripts/check_integrity.py           # gate
    PYTHONPATH=src python scripts/check_integrity.py --ops "syscall stat"
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.monitoring import run_table2
from repro.analysis.tables import run_table1
from repro.config import PlatformConfig
from repro.errors import IntegrityError


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
    args = parser.parse_args(argv)

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

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
