"""Table 1 runner: LMbench kernel operations on the three systems.

Each system configuration is one independent :class:`~repro.tools.runner.Cell`
(fresh machine, full op sweep), so Table 1 regenerates in parallel on
every available CPU and caches per-system results content-addressed;
the merged table is byte-identical to a serial run (see DESIGN.md §5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import PlatformConfig
from repro.analysis import paper
from repro.analysis.compare import arithmetic_mean, format_table, overhead_percent
from repro.tools.runner import Cell, CellCache, run_cells
from repro.workloads.lmbench import LMBENCH_OPS

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

    def format(self) -> str:
        headers = (["Test"] + [f"{s} (µs)" for s in SYSTEMS]
                   + [f"paper {s}" for s in SYSTEMS])
        body = [
            [op] + [f"{self.rows[op][s]:.2f}" for s in SYSTEMS]
            + [f"{paper.TABLE1[op][s]:.2f}" for s in SYSTEMS]
            for op in self.rows
        ]
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
    platform_config: Optional[PlatformConfig] = None,
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
            platform_config=platform_config,
        )
        for system_name in SYSTEMS
    ]


def execute_cell(cell: Cell) -> Dict[str, Any]:
    """Worker body: build one system, run its LMbench sweep."""
    from repro.core.hypernel import build_system
    from repro.obs import collect_metrics
    from repro.workloads.lmbench import LmbenchSuite

    kwargs: Dict[str, Any] = {}
    if cell.environment == "hypernel":
        kwargs["with_mbm"] = False  # paper 7.1: only Hypersec active
    if cell.environment == "kvm-guest":
        # Steady-state measurement: a long-running guest has its
        # memory stage-2-mapped already (cold faults are boot noise).
        kwargs["prepopulate_stage2"] = True
    system = build_system(cell.environment,
                          platform_config=cell.platform_config, **kwargs)

    spec = cell.spec
    suite = LmbenchSuite(system, warmup=spec["warmup"],
                         iterations=spec["iterations"])
    suite.setup()
    rows = {op: suite.run_op(op).microseconds for op in spec["ops"]}
    return {
        "rows": rows,
        "accesses": system.count_accesses(),
        "sim_cycles": system.platform.clock.now,
        "metrics": collect_metrics(system).to_dict(),
    }


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
        result.health[cell.environment] = payload["metrics"]
    return result


def run_table1(
    platform_config: Optional[PlatformConfig] = None,
    warmup: int = 4,
    iterations: int = 16,
    ops: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
) -> Table1Result:
    """Build each system, run the LMbench suite, collect Table 1.

    ``jobs`` sizes the process pool (default: every available CPU;
    ``1`` runs serially in-process — see ``run_cells``).  The run fails
    (IntegrityError) if any cell's monitoring pipeline lost events.
    """
    ops = list(ops or LMBENCH_OPS)
    cells = table1_cells(platform_config, warmup, iterations, ops)
    payloads = run_cells(cells, jobs=jobs, cache=cache)
    return merge_table1(cells, payloads, ops)
