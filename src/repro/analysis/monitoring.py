"""Table 2 runner: word- vs page-granularity monitoring trap counts.

Reproduces the paper's section 7.2 methodology exactly:

* **word granularity** — the cred and dentry monitors register only the
  sensitive fields of their objects; every MBM detection is one trap.
* **page granularity (estimated)** — a second configuration registers
  the *entire* objects; its detection count equals the permission
  faults a page-granularity (stage-2 read-only) framework would take
  if the target objects were aggregated onto monitored pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import PlatformConfig
from repro.analysis import paper
from repro.analysis.compare import format_table
from repro.tools.runner import Cell, CellCache, run_cells

GRANULARITIES = ["page", "word"]


@dataclass
class Table2Result:
    """Measured Table 2: app -> granularity -> trap count."""

    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    scale: float = 1.0
    #: Per-cell observability reports (granularity -> RunMetrics dict).
    #: Table 2 *is* a detection count, so a failed integrity check here
    #: means the counts themselves are short — see repro.obs.
    health: Dict[str, dict] = field(default_factory=dict)

    def ratio_percent(self, app: str) -> float:
        row = self.counts[app]
        if row["page"] == 0:
            return 0.0
        return row["word"] / row["page"] * 100.0

    def mean_ratio_percent(self) -> float:
        total_word = sum(row["word"] for row in self.counts.values())
        total_page = sum(row["page"] for row in self.counts.values())
        if total_page == 0:
            return 0.0
        return total_word / total_page * 100.0

    def format(self) -> str:
        headers = ["benchmark", "page-granularity", "word-granularity", "ratio",
                   "paper page", "paper word", "paper ratio"]
        body = []
        for app, row in self.counts.items():
            line = [
                app,
                str(row["page"]),
                str(row["word"]),
                f"{self.ratio_percent(app):.1f}%",
            ]
            if app in paper.TABLE2:
                p = paper.TABLE2[app]
                line += [str(p["page"]), str(p["word"]),
                         f"{p['word'] / p['page'] * 100:.1f}%"]
            body.append(line)
        table = format_table(headers, body)
        footer = (
            f"\noverall word/page ratio: {self.mean_ratio_percent():.1f}% "
            f"(paper: {paper.TABLE2_MEAN_RATIO:.1f}%)"
            f"   [workload scale = {self.scale}]"
        )
        return table + footer


def table2_cells(
    scale: float = 0.25,
    platform_config: Optional[PlatformConfig] = None,
    apps: Optional[List[str]] = None,
) -> List[Cell]:
    """One cell per monitoring granularity, in ``GRANULARITIES`` order.

    ``apps`` names a subset of the paper's applications (default: all
    five); the worker builds them at ``scale``.
    """
    spec: Dict[str, Any] = {"scale": scale}
    if apps is not None:
        spec["apps"] = list(apps)
    return [
        Cell(
            kind="table2",
            environment=granularity,
            workload="apps",
            spec=dict(spec),
            platform_config=platform_config,
        )
        for granularity in GRANULARITIES
    ]


def execute_cell(cell: Cell) -> Dict[str, Any]:
    """Worker body: one monitored Hypernel system, all applications."""
    from repro.core.hypernel import build_system
    from repro.obs import collect_metrics
    from repro.security.baseline_page import WholeObjectMonitor
    from repro.security.cred_monitor import CredIntegrityMonitor
    from repro.security.dentry_monitor import DentryIntegrityMonitor
    from repro.workloads.apps import default_applications

    if cell.environment == "page":
        monitors = [WholeObjectMonitor(("cred", "dentry"))]
    else:
        monitors = [CredIntegrityMonitor(), DentryIntegrityMonitor()]
    system = build_system("hypernel", platform_config=cell.platform_config,
                          with_mbm=True, monitors=monitors)

    shell = system.spawn_init()
    counts: Dict[str, int] = {}
    for app in default_applications(cell.spec["scale"], cell.spec.get("apps")):
        app.prepare(system, shell)
        before = system.mbm.events_detected
        app.run(system, shell)
        counts[app.name] = system.mbm.events_detected - before
    return {
        "counts": counts,
        "accesses": system.count_accesses(),
        "sim_cycles": system.platform.clock.now,
        "metrics": collect_metrics(system).to_dict(),
    }


def merge_table2(
    cells: List[Cell], payloads: List[Dict[str, Any]], scale: float
) -> Table2Result:
    """Fold per-cell payloads into a :class:`Table2Result`.

    One cell per monitoring granularity, each carrying every
    application's trap count.
    """
    result = Table2Result(scale=scale)
    for cell, payload in zip(cells, payloads):
        for app_name, delta in payload["counts"].items():
            result.counts.setdefault(app_name, {})[cell.environment] = delta
        result.health[cell.environment] = payload["metrics"]
    return result


def run_table2(
    scale: float = 0.25,
    platform_config: Optional[PlatformConfig] = None,
    apps: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
) -> Table2Result:
    """Run the five applications under both monitoring configurations.

    ``jobs`` sizes the process pool (default: every available CPU;
    ``1`` runs serially in-process — see ``run_cells``).  The run fails
    (IntegrityError) if the MBM pipeline lost events — for Table 2 that
    means the trap counts themselves would be short.
    """
    cells = table2_cells(scale, platform_config, apps)
    payloads = run_cells(cells, jobs=jobs, cache=cache)
    return merge_table2(cells, payloads, scale)
