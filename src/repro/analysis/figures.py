"""Figure 6 runner: application benchmarks, normalized to native.

Like Table 1, each system configuration is one independent
:class:`~repro.tools.runner.Cell`; normalization to native happens at
merge time in the parent, so the parallel path and the serial path
produce byte-identical results (see DESIGN.md §5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import PlatformConfig
from repro.analysis import paper
from repro.analysis.compare import arithmetic_mean, format_table
from repro.tools.runner import Cell, CellCache, run_cells

SYSTEMS = ["native", "kvm-guest", "hypernel"]


@dataclass
class Figure6Result:
    """Measured Figure 6: app -> system -> normalized runtime."""

    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)
    raw_us: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-cell observability reports (environment -> RunMetrics dict);
    #: display-only — never feeds the normalized values.
    health: Dict[str, dict] = field(default_factory=dict)

    def average_overhead(self, system: str) -> float:
        values = [row[system] for row in self.normalized.values()]
        return (arithmetic_mean(values) - 1.0) * 100.0

    def format(self) -> str:
        headers = ["Benchmark"] + [f"{s} (norm.)" for s in SYSTEMS]
        body = [
            [app] + [f"{self.normalized[app][s]:.3f}" for s in SYSTEMS]
            for app in self.normalized
        ]
        table = format_table(headers, body)
        footer = (
            f"\naverage overhead vs native: "
            f"kvm-guest {self.average_overhead('kvm-guest'):+.1f}% "
            f"(paper {paper.APP_AVG_OVERHEAD['kvm-guest']:+.1f}%), "
            f"hypernel {self.average_overhead('hypernel'):+.1f}% "
            f"(paper {paper.APP_AVG_OVERHEAD['hypernel']:+.1f}%)"
        )
        return table + "\n" + self.ascii_chart() + footer

    def ascii_chart(self, width: int = 48) -> str:
        """A bar chart of normalized runtimes (the Figure 6 visual)."""
        lines = ["normalized execution time (native = 1.0)"]
        peak = max(
            value for row in self.normalized.values() for value in row.values()
        )
        for app, row in self.normalized.items():
            for system in SYSTEMS:
                bar = "#" * max(1, int(row[system] / peak * width))
                lines.append(f"{app:>10s} {system:>9s} |{bar} {row[system]:.3f}")
            lines.append("")
        return "\n".join(lines)


def figure6_cells(
    scale: float = 0.25,
    platform_config: Optional[PlatformConfig] = None,
    apps: Optional[List[str]] = None,
) -> List[Cell]:
    """One cell per system configuration, in ``SYSTEMS`` order.

    ``apps`` names a subset of the paper's applications (default: all
    five); the worker builds them at ``scale``.
    """
    spec: Dict[str, Any] = {"scale": scale}
    if apps is not None:
        spec["apps"] = list(apps)
    return [
        Cell(
            kind="figure6",
            environment=system_name,
            workload="apps",
            spec=dict(spec),
            platform_config=platform_config,
        )
        for system_name in SYSTEMS
    ]


def execute_cell(cell: Cell) -> Dict[str, Any]:
    """Worker body: build one system, run every application."""
    from repro.core.hypernel import build_system
    from repro.obs import collect_metrics
    from repro.workloads.apps import default_applications

    kwargs: Dict[str, Any] = {}
    if cell.environment == "hypernel":
        kwargs["with_mbm"] = False  # paper 7.1: only Hypersec active
    if cell.environment == "kvm-guest":
        kwargs["prepopulate_stage2"] = True  # steady-state guest
    system = build_system(cell.environment,
                          platform_config=cell.platform_config, **kwargs)

    shell = system.spawn_init()
    raw_us: Dict[str, float] = {}
    for app in default_applications(cell.spec["scale"], cell.spec.get("apps")):
        app.prepare(system, shell)
        run = app.run(system, shell)
        raw_us[app.name] = run.microseconds
    return {
        "raw_us": raw_us,
        "accesses": system.count_accesses(),
        "sim_cycles": system.platform.clock.now,
        "metrics": collect_metrics(system).to_dict(),
    }


def merge_figure6(
    cells: List[Cell], payloads: List[Dict[str, Any]]
) -> Figure6Result:
    """Fold per-cell payloads into a :class:`Figure6Result`.

    One cell per system; each application's time is normalized to
    the native cell's.
    """
    result = Figure6Result()
    for cell, payload in zip(cells, payloads):
        for app_name, microseconds in payload["raw_us"].items():
            result.raw_us.setdefault(app_name, {})[cell.environment] = microseconds
        result.health[cell.environment] = payload["metrics"]
    for app_name, row in result.raw_us.items():
        native = row["native"]
        result.normalized[app_name] = {
            system: row[system] / native for system in SYSTEMS
        }
    return result


def run_figure6(
    scale: float = 0.25,
    platform_config: Optional[PlatformConfig] = None,
    apps: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
) -> Figure6Result:
    """Run each application on each system; normalize to native.

    ``jobs`` sizes the process pool (default: every available CPU;
    ``1`` runs serially in-process — see ``run_cells``).  The run fails
    (IntegrityError) if any cell's monitoring pipeline lost events.
    """
    cells = figure6_cells(scale, platform_config, apps)
    payloads = run_cells(cells, jobs=jobs, cache=cache)
    return merge_figure6(cells, payloads)
