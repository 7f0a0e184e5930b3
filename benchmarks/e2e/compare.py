#!/usr/bin/env python3
"""Compare two result files of ``run.py``, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

For each workload and end-to-end metric, prints both reported values
(the fastest sample, or for ``setup_s`` the median), both interquartile
ranges and the ratio NEW/BASE, with a verdict against the metric's
bound in ``BENCHMARK.json``:

* ``unresolved``: either run's IQR is wider than the bound times its
  median, so the host was too noisy to tell a change of that size;
* ``worse``: the new value is worse than the base value by more than
  the bound;
* ``better``: the new value is better by more than the bound;
* ``within bound``: otherwise.

A ``better`` here screens; it is not a gain claim, which needs paired
runs of both commits.  Exits 1 if any metric is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """Verdict for one metric; ``base``/``new`` hold value, median, q1, q3."""
    for side in (base, new):
        if side["q3"] - side["q1"] > bound * abs(side["median"]):
            return "unresolved"
    change = (new["value"] - base["value"]) / base["value"]
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(base: dict, new: dict, metrics: List[dict]) -> List[dict]:
    """One row per workload and end-to-end metric present in both runs."""
    rows = []
    for workload, base_record in base["workloads"].items():
        new_record = new["workloads"].get(workload)
        if new_record is None:
            continue
        for spec in metrics:
            name = spec["name"]
            if (name not in base_record["metrics"]
                    or name not in new_record["metrics"]):
                continue
            old = base_record["metrics"][name]
            cur = new_record["metrics"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "base": old, "new": cur,
                "ratio": cur["value"] / old["value"],
                "verdict": verdict(old, cur, spec["bound"], spec["better"]),
            })
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    metrics: List[Dict] = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(base, new, metrics)
    print(f"{'workload':8s} {'metric':13s} {'base value':>12s} "
          f"{'iqr':>8s} {'new value':>12s} {'iqr':>8s} {'ratio':>6s}  "
          f"verdict")
    for row in rows:
        old, cur = row["base"], row["new"]
        print(f"{row['workload']:8s} {row['metric']:13s} "
              f"{old['value']:12.4f} {old['q3'] - old['q1']:8.4f} "
              f"{cur['value']:12.4f} {cur['q3'] - cur['q1']:8.4f} "
              f"{row['ratio']:6.3f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
