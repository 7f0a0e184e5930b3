"""Table 1 runner: LMbench kernel operations on the three systems.

Each system configuration is one independent :class:`~repro.tools.runner.Cell`
(fresh machine, full op sweep), so Table 1 regenerates in parallel with
``jobs > 1`` and caches per-system results content-addressed; the merged
table is byte-identical to a serial run (see DESIGN.md §5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.config import PlatformConfig
from repro.core.hypernel import build_system
from repro.analysis import paper
from repro.analysis.compare import arithmetic_mean, format_table, overhead_percent
from repro.tools.runner import Cell, CellCache, attach_boot_snapshots, run_cells
from repro.workloads.lmbench import LMBENCH_OPS, LmbenchSuite

SYSTEMS = ["native", "kvm-guest", "hypernel"]


@dataclass
class Table1Result:
    """Measured Table 1: op -> system -> µs."""

    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-cell observability reports (environment -> RunMetrics dict);
    #: rendered by the report's run-health section.  Never feeds the
    #: table values, so the table stays byte-identical either way.
    health: Dict[str, dict] = field(default_factory=dict)

    def average_overhead(self, system: str) -> float:
        """Average slowdown vs native over all ops (paper section 7.1.1)."""
        overheads = [
            overhead_percent(values[system], values["native"])
            for values in self.rows.values()
        ]
        return arithmetic_mean(overheads)

    def format(self, include_paper: bool = True) -> str:
        headers = ["Test"] + [f"{s} (µs)" for s in SYSTEMS]
        if include_paper:
            headers += [f"paper {s}" for s in SYSTEMS]
        body = []
        for op in self.rows:
            row = [op] + [f"{self.rows[op][s]:.2f}" for s in SYSTEMS]
            if include_paper:
                row += [f"{paper.TABLE1[op][s]:.2f}" for s in SYSTEMS]
            body.append(row)
        table = format_table(headers, body)
        footer = (
            f"\naverage overhead vs native: "
            f"kvm-guest {self.average_overhead('kvm-guest'):+.1f}% "
            f"(paper {paper.LMBENCH_AVG_OVERHEAD['kvm-guest']:+.1f}%), "
            f"hypernel {self.average_overhead('hypernel'):+.1f}% "
            f"(paper {paper.LMBENCH_AVG_OVERHEAD['hypernel']:+.1f}%)"
        )
        return table + footer


def table1_cells(
    platform_factory: Optional[Callable[[], PlatformConfig]] = None,
    warmup: int = 4,
    iterations: int = 16,
    ops: Optional[List[str]] = None,
) -> List[Cell]:
    """One cell per system configuration, in ``SYSTEMS`` order."""
    ops = list(ops or LMBENCH_OPS)
    return [
        Cell(
            kind="table1",
            environment=system_name,
            workload="lmbench",
            spec={"ops": ops, "warmup": warmup, "iterations": iterations},
            platform_config=(
                platform_factory() if platform_factory is not None else None
            ),
        )
        for system_name in SYSTEMS
    ]


def cell_build_args(cell: Cell) -> tuple:
    """``(system_name, build_kwargs)`` for this cell's environment."""
    kwargs: Dict[str, Any] = {}
    if cell.environment == "hypernel":
        kwargs["with_mbm"] = False  # paper 7.1: only Hypersec active
    if cell.environment == "kvm-guest":
        # Steady-state measurement: a long-running guest has its
        # memory stage-2-mapped already (cold faults are boot noise).
        kwargs["prepopulate_stage2"] = True
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
    """Run the cell's LMbench sweep on a pristine, pre-built ``system``.

    The fork-server backend boots (or restores) one system per
    environment and forks a copy-on-write child per cell; the child
    lands here with the inherited machine.  The serial and pool paths
    reach the same code through :func:`execute_cell`, so every backend
    runs the identical workload body.
    """
    from repro.obs import collect_metrics
    from repro.tools.macroops import MacroOpEngine, memoization_enabled
    from repro.tools.perf import count_accesses

    spec = cell.spec
    suite = LmbenchSuite(
        system, warmup=spec["warmup"], iterations=spec["iterations"],
        engine=MacroOpEngine(system) if memoization_enabled() else None,
    )
    suite.setup()
    rows = {op: suite.run_op(op).microseconds for op in spec["ops"]}
    return {
        "rows": rows,
        "accesses": count_accesses(system),
        "sim_cycles": system.platform.clock.now,
        "metrics": collect_metrics(system).to_dict(),
    }


def execute_cell(cell: Cell) -> Dict[str, Any]:
    """Worker body: build one system, run its LMbench sweep."""
    return execute_cell_on(cell, cell_system(cell))


def merge_table1(
    cells: List[Cell], payloads: List[Dict[str, Any]], ops: List[str],
) -> Table1Result:
    """Fold per-cell payloads into a :class:`Table1Result`.

    One cell per system, each carrying a row for every op in ``ops``;
    the table keeps that op order.  ``health`` holds each system's
    metrics block; it is advisory and never rendered into the table.
    """
    result = Table1Result(rows={op: {} for op in ops})
    for cell, payload in zip(cells, payloads):
        for op in ops:
            result.rows[op][cell.environment] = payload["rows"][op]
        if "metrics" in payload:
            result.health[cell.environment] = payload["metrics"]
    return result


def run_table1(
    platform_factory: Optional[Callable[[], PlatformConfig]] = None,
    warmup: int = 4,
    iterations: int = 16,
    ops: Optional[List[str]] = None,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    warm_start: bool = False,
    backend: str = "auto",
    enforce_integrity: bool = False,
    waive: tuple = (),
) -> Table1Result:
    """Build each system, run the LMbench suite, collect Table 1.

    With ``warm_start``, each cell restores a shared post-boot snapshot
    of its system instead of booting (bit-identical by the repro.state
    contract, so the table itself is byte-identical either way).
    ``backend`` picks the cell execution backend (see ``run_cells``).
    ``enforce_integrity`` fails the run (IntegrityError) if any cell's
    monitoring pipeline lost events; ``waive`` accepts named checks.
    """
    ops = list(ops or LMBENCH_OPS)
    cells = table1_cells(platform_factory, warmup, iterations, ops)
    if warm_start:
        attach_boot_snapshots(
            cells, cache_dir=cache.directory if cache is not None else None
        )
    payloads = run_cells(
        cells, jobs=jobs, cache=cache, backend=backend,
        integrity="enforce" if enforce_integrity else "ignore", waive=waive,
    )
    return merge_table1(cells, payloads, ops)
