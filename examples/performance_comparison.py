#!/usr/bin/env python3
"""Reproduce the performance evaluation (paper Table 1 and Figure 6).

Runs the LMbench micro-operations and the five application benchmarks on
all three system configurations and prints the tables next to the
paper's numbers.

Run:  python examples/performance_comparison.py [--scale 0.25] [--dram-mb 192]
"""

import argparse

from repro.config import PlatformConfig
from repro.analysis.figures import run_figure6
from repro.analysis.tables import run_table1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="application workload scale (1.0 = full)")
    parser.add_argument("--dram-mb", type=int, default=192,
                        help="simulated DRAM size in MB")
    parser.add_argument("--skip-apps", action="store_true",
                        help="run only Table 1 (faster)")
    args = parser.parse_args()

    platform_config = PlatformConfig(
        dram_bytes=args.dram_mb * 1024 * 1024,
        secure_bytes=max(16, args.dram_mb // 8) * 1024 * 1024,
    )

    print("=== Table 1: LMbench kernel operations (µs) ===\n")
    table1 = run_table1(platform_config=platform_config)
    print(table1.format())

    if not args.skip_apps:
        print("\n\n=== Figure 6: application benchmarks (normalized) ===\n")
        fig6 = run_figure6(scale=args.scale, platform_config=platform_config)
        print(fig6.format())


if __name__ == "__main__":
    main()
