#!/usr/bin/env python3
"""Reproduce the kernel-monitoring efficiency result (paper Table 2).

Runs the five applications twice on a monitored Hypernel system:

* word granularity — the cred/dentry monitors register only sensitive
  fields (Hypernel's MBM capability);
* page granularity (estimated) — whole objects are registered, counting
  the traps a conventional page-protection framework would take.

The ratio is the paper's headline monitoring result (~6% overall).

Run:  python examples/monitoring_efficiency.py [--scale 0.25]
"""

import argparse

from repro.config import PlatformConfig
from repro.analysis.monitoring import run_table2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--dram-mb", type=int, default=128)
    args = parser.parse_args()

    platform_config = PlatformConfig(
        dram_bytes=args.dram_mb * 1024 * 1024,
        secure_bytes=max(16, args.dram_mb // 8) * 1024 * 1024,
    )

    print("=== Table 2: trap counts, page- vs word-granularity ===\n")
    table2 = run_table2(scale=args.scale, platform_config=platform_config)
    print(table2.format())
    print()
    for app in table2.counts:
        ratio = table2.ratio_percent(app)
        bar = "#" * max(1, int(ratio))
        print(f"{app:>10s} |{bar:<30s} {ratio:4.1f}% of page-granularity traps")
    print("\n(counts scale with --scale; the ratios do not — that is the")
    print(" paper's point: the MBM's word granularity removes the noise.)")


if __name__ == "__main__":
    main()
