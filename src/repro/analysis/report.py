"""One-shot evaluation report: every reproduced result as markdown.

:func:`generate_report` runs Table 1, Figure 6, Table 2 and the attack
matrix and renders a self-contained markdown document with
measured-vs-paper columns — the programmatic counterpart of
EXPERIMENTS.md, for users who changed the cost model or workloads and
want a fresh record.

::

    from repro.analysis.report import generate_report
    print(generate_report(scale=0.25))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import DEFAULT_DRAM_MB, PlatformConfig, platform_for
from repro.analysis import paper
from repro.analysis.figures import run_figure6
from repro.analysis.monitoring import run_table2
from repro.analysis.tables import run_table1
from repro.obs.metrics import RunMetrics
from repro.tools.runner import CellCache
from repro.workloads.lmbench import LMBENCH_OPS


def _attack_matrix(platform_config: PlatformConfig) -> List[str]:
    from repro.attacks import (
        AtraAttack,
        CredEscalationAttack,
        DentryHijackAttack,
        MmuDisableAttack,
        PageTableTamperAttack,
        TtbrSwitchAttack,
        run_attack_matrix,
    )

    def verdict(outcome) -> str:
        if outcome.blocked:
            return "blocked"
        if outcome.detected:
            return "detected"
        return "silent success"

    scenarios = [
        ("cred escalation", CredEscalationAttack),
        ("dentry hijack", DentryHijackAttack),
        ("page-table tamper", PageTableTamperAttack),
        ("TTBR switch", TtbrSwitchAttack),
        ("MMU disable", MmuDisableAttack),
        ("ATRA", AtraAttack),
    ]
    outcomes = run_attack_matrix([attack for _, attack in scenarios],
                                 platform_config)
    lines = ["| attack | native | hypernel |", "|---|---|---|"]
    for row, (label, _) in enumerate(scenarios):
        lines.append(f"| {label} | {verdict(outcomes['native'][row])} "
                     f"| {verdict(outcomes['hypernel'][row])} |")
    return lines


def health_lines(sections: Dict[str, Dict[str, dict]]) -> List[str]:
    """Render the run-health table from per-experiment health maps.

    ``sections`` maps an experiment title to its result's ``health``
    attribute (cell name -> serialized RunMetrics).  Cells without an
    MBM report ``n/a`` integrity; cells with one report ``ok`` or
    ``FAILED <check> = <value>`` per failing counter, so a lossy run is
    visible (and nameable) straight from the report.
    """
    lines = [
        "| experiment | cell | integrity | events | lost | fifo high-water "
        "| bitmap-cache hits | irqs/event |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for experiment, health in sections.items():
        for cell_name, data in health.items():
            metrics = RunMetrics.from_dict(data)
            if not metrics.checks:
                lines.append(
                    f"| {experiment} | {cell_name} | n/a (no MBM) "
                    f"| - | - | - | - | - |"
                )
                continue
            failures = metrics.failures
            if failures:
                verdict = "FAILED " + ", ".join(
                    f"{check.name} = {check.value}" for check in failures
                )
            else:
                verdict = "ok"
            gauges = metrics.gauges
            lines.append(
                f"| {experiment} | {cell_name} | {verdict} "
                f"| {int(gauges.get('events_detected', 0))} "
                f"| {int(gauges.get('events_lost', 0))} "
                f"| {int(gauges.get('fifo_high_water', 0))}"
                f"/{int(gauges.get('fifo_depth', 0))} "
                f"| {gauges.get('bitmap_cache_hit_rate', 0.0) * 100:.1f}% "
                f"| {gauges.get('irqs_per_detection', 0.0):.2f} |"
            )
    return lines


def generate_report(
    scale: float = 0.25,
    platform_config: Optional[PlatformConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
) -> str:
    """Run the full evaluation and return it as a markdown document.

    The platform defaults to the CLI's (``--dram-mb`` at its default).
    ``jobs`` and ``cache`` are forwarded to the three
    cell-based experiment runners (the attack matrix stays in-process:
    its scenarios share mutable victim systems).  The report
    always ends with a run-health section; generation fails with an
    IntegrityError when the monitoring pipeline lost events.
    """
    if platform_config is None:
        platform_config = platform_for(DEFAULT_DRAM_MB)
    runner_kwargs = {"platform_config": platform_config, "jobs": jobs,
                     "cache": cache}
    lines: List[str] = [
        "# Hypernel reproduction — evaluation report",
        "",
        f"Workload scale: {scale}; platform: "
        f"{platform_config.dram_bytes // (1 << 20)} MB DRAM.",
        "",
        "## Table 1 — LMbench kernel operations (µs)",
        "",
        "| test | native | kvm-guest | hypernel | paper native | paper kvm | paper hypernel |",
        "|---|---|---|---|---|---|---|",
    ]
    table1 = run_table1(**runner_kwargs)
    for op in LMBENCH_OPS:
        row = table1.rows[op]
        p = paper.TABLE1[op]
        lines.append(
            f"| {op} | {row['native']:.2f} | {row['kvm-guest']:.2f} | "
            f"{row['hypernel']:.2f} | {p['native']:.2f} | "
            f"{p['kvm-guest']:.2f} | {p['hypernel']:.2f} |"
        )
    lines += [
        "",
        f"Average overhead vs native: kvm-guest "
        f"{table1.average_overhead('kvm-guest'):+.1f}% (paper "
        f"{paper.LMBENCH_AVG_OVERHEAD['kvm-guest']:+.1f}%), hypernel "
        f"{table1.average_overhead('hypernel'):+.1f}% (paper "
        f"{paper.LMBENCH_AVG_OVERHEAD['hypernel']:+.1f}%).",
        "",
        "## Figure 6 — application benchmarks (normalized)",
        "",
        "| benchmark | kvm-guest | hypernel |",
        "|---|---|---|",
    ]
    fig6 = run_figure6(scale=scale, **runner_kwargs)
    for app, row in fig6.normalized.items():
        lines.append(
            f"| {app} | {row['kvm-guest']:.3f} | {row['hypernel']:.3f} |"
        )
    lines += [
        "",
        f"Average overhead: kvm-guest "
        f"{fig6.average_overhead('kvm-guest'):+.1f}% (paper "
        f"{paper.APP_AVG_OVERHEAD['kvm-guest']:+.1f}%), hypernel "
        f"{fig6.average_overhead('hypernel'):+.1f}% (paper "
        f"{paper.APP_AVG_OVERHEAD['hypernel']:+.1f}%).",
        "",
        "## Table 2 — monitoring trap counts",
        "",
        "| benchmark | page | word | ratio | paper ratio |",
        "|---|---|---|---|---|",
    ]
    table2 = run_table2(scale=scale, **runner_kwargs)
    for app, row in table2.counts.items():
        p = paper.TABLE2.get(app)
        paper_ratio = (
            f"{p['word'] / p['page'] * 100:.1f}%" if p else "-"
        )
        lines.append(
            f"| {app} | {row['page']} | {row['word']} | "
            f"{table2.ratio_percent(app):.1f}% | {paper_ratio} |"
        )
    lines += [
        "",
        f"Overall word/page ratio: {table2.mean_ratio_percent():.1f}% "
        f"(paper {paper.TABLE2_MEAN_RATIO:.1f}%).",
    ]
    lines += ["", "## Attack matrix", ""]
    lines += _attack_matrix(platform_config)
    lines += ["", "## Run health", ""]
    lines += health_lines(
        {
            "table1": table1.health,
            "figure6": fig6.health,
            "table2": table2.health,
        }
    )
    lines.append("")
    return "\n".join(lines)
