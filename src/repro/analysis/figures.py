"""Figure 6 runner: application benchmarks, normalized to native.

Like Table 1, each system configuration is one independent
:class:`~repro.tools.runner.Cell`; normalization to native happens at
merge time in the parent, so the parallel path and the serial path
produce byte-identical results (see DESIGN.md §5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.config import PlatformConfig
from repro.core.hypernel import build_system
from repro.analysis import paper
from repro.analysis.compare import arithmetic_mean, format_table
from repro.tools.runner import Cell, CellCache, attach_boot_snapshots, run_cells
from repro.workloads.apps import ApplicationWorkload, default_applications

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
    platform_factory: Optional[Callable[[], PlatformConfig]] = None,
    apps: Optional[List[ApplicationWorkload]] = None,
) -> List[Cell]:
    """One cell per system configuration, in ``SYSTEMS`` order.

    With the default app set, cells carry only the scale (the worker
    rebuilds the apps) and are cacheable; caller-supplied workload
    objects travel inside the spec and make the cell uncacheable.
    """
    spec: Dict[str, Any] = {"scale": scale}
    if apps is not None:
        spec["apps"] = apps
    return [
        Cell(
            kind="figure6",
            environment=system_name,
            workload="apps",
            spec=dict(spec),
            platform_config=(
                platform_factory() if platform_factory is not None else None
            ),
            cacheable=apps is None,
        )
        for system_name in SYSTEMS
    ]


def cell_build_args(cell: Cell) -> tuple:
    """``(system_name, build_kwargs)`` for this cell's environment."""
    kwargs: Dict[str, Any] = {}
    if cell.environment == "hypernel":
        kwargs["with_mbm"] = False  # paper 7.1: only Hypersec active
    if cell.environment == "kvm-guest":
        kwargs["prepopulate_stage2"] = True  # steady-state guest
    return cell.environment, kwargs


def cell_system(cell: Cell):
    """Boot the cell's system — or restore its warm-start snapshot."""
    name, kwargs = cell_build_args(cell)
    if cell.snapshot_path:
        return build_system(name, from_snapshot=cell.snapshot_path)
    if cell.platform_config is not None:
        kwargs["platform_config"] = cell.platform_config
    return build_system(name, **kwargs)


def execute_cell_on(cell: Cell, system) -> Dict[str, Any]:
    """Run every application on a pristine, pre-built ``system``.

    Shared workload body for all runner backends; the fork-server
    backend calls it in a copy-on-write child with the server's
    inherited machine (see :mod:`repro.tools.forkserver`).
    """
    from repro.obs import collect_metrics
    from repro.tools.perf import count_accesses

    apps = cell.spec.get("apps")
    if apps is None:
        apps = default_applications(cell.spec["scale"])
    shell = system.spawn_init()
    raw_us: Dict[str, float] = {}
    for app in apps:
        app.prepare(system, shell)
        run = app.run(system, shell)
        raw_us[app.name] = run.microseconds
    return {
        "raw_us": raw_us,
        "accesses": count_accesses(system),
        "sim_cycles": system.platform.clock.now,
        "metrics": collect_metrics(system).to_dict(),
    }


def execute_cell(cell: Cell) -> Dict[str, Any]:
    """Worker body: build one system, run every application on it."""
    return execute_cell_on(cell, cell_system(cell))


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
        if "metrics" in payload:
            result.health[cell.environment] = payload["metrics"]
    for app_name, row in result.raw_us.items():
        native = row["native"]
        result.normalized[app_name] = {
            system: row[system] / native for system in SYSTEMS
        }
    return result


def run_figure6(
    scale: float = 0.25,
    platform_factory: Optional[Callable[[], PlatformConfig]] = None,
    apps: Optional[List[ApplicationWorkload]] = None,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    warm_start: bool = False,
    backend: str = "auto",
    enforce_integrity: bool = False,
    waive: tuple = (),
) -> Figure6Result:
    """Run each application on each system; normalize to native.

    ``warm_start`` restores each cell's system from a shared post-boot
    snapshot instead of booting it (see repro.state); ``backend`` picks
    the cell execution backend (see ``run_cells``).
    ``enforce_integrity`` fails the run (IntegrityError) if any cell's
    monitoring pipeline lost events; ``waive`` accepts named checks.
    """
    cells = figure6_cells(scale, platform_factory, apps)
    if warm_start:
        attach_boot_snapshots(
            cells, cache_dir=cache.directory if cache is not None else None
        )
    payloads = run_cells(
        cells, jobs=jobs, cache=cache, backend=backend,
        integrity="enforce" if enforce_integrity else "ignore", waive=waive,
    )
    return merge_figure6(cells, payloads)
