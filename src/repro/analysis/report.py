"""One-shot evaluation report: every reproduced result as markdown.

:func:`generate_report` runs Table 1, Figure 6 and Table 2 (and,
optionally, the attack matrix) and renders a self-contained markdown
document with measured-vs-paper columns — the programmatic counterpart
of EXPERIMENTS.md, for users who changed the cost model or workloads
and want a fresh record.

::

    from repro.analysis.report import generate_report
    print(generate_report(scale=0.25))
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import PlatformConfig
from repro.analysis import paper
from repro.analysis.figures import run_figure6
from repro.analysis.monitoring import run_table2
from repro.analysis.tables import run_table1
from repro.obs.metrics import RunMetrics
from repro.tools.runner import CellCache
from repro.workloads.lmbench import LMBENCH_OPS


def _attack_matrix(platform_factory) -> List[str]:
    from repro.core.hypernel import build_hypernel, build_native
    from repro.kernel.kernel import KernelConfig
    from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor
    from repro.attacks import (
        AtraAttack,
        CredEscalationAttack,
        DentryHijackAttack,
        MmuDisableAttack,
        PageTableTamperAttack,
        TtbrSwitchAttack,
    )

    def verdict(outcome) -> str:
        if outcome.blocked:
            return "blocked"
        if outcome.detected:
            return "detected"
        return "silent success"

    lines = ["| attack | native | hypernel |", "|---|---|---|"]
    systems = {}
    victims = {}
    for name in ("native", "hypernel"):
        if name == "native":
            system = build_native(
                platform_config=platform_factory(),
                kernel_config=KernelConfig(linear_map_mode="page"),
            )
        else:
            system = build_hypernel(
                platform_config=platform_factory(),
                monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
            )
        kernel = system.kernel
        init = system.spawn_init()
        victim = kernel.sys.fork(init)
        kernel.procs.context_switch(victim)
        kernel.sys.setuid(victim, 1000)
        kernel.vfs.mkdir_p("/etc")
        kernel.sys.creat(victim, "/etc/passwd")
        systems[name], victims[name] = system, victim
    scenarios = [
        ("cred escalation", lambda s, v: CredEscalationAttack().mount(s, v)),
        ("dentry hijack", lambda s, v: DentryHijackAttack().mount(s, "/etc/passwd")),
        ("page-table tamper", lambda s, v: PageTableTamperAttack().mount(s)),
        ("TTBR switch", lambda s, v: TtbrSwitchAttack().mount(s)),
        ("MMU disable", lambda s, v: MmuDisableAttack().mount(s)),
        ("ATRA", lambda s, v: AtraAttack().mount(s, v)),
    ]
    for label, mount in scenarios:
        row = [label]
        for name in ("native", "hypernel"):
            row.append(verdict(mount(systems[name], victims[name])))
        lines.append("| " + " | ".join(row) + " |")
    return lines


def health_lines(sections: Dict[str, Dict[str, dict]]) -> List[str]:
    """Render the run-health table from per-experiment health maps.

    ``sections`` maps an experiment title to its result's ``health``
    attribute (cell name -> serialized RunMetrics).  Cells without an
    MBM report ``n/a`` integrity; cells with one report ``ok``,
    ``WAIVED`` or ``FAILED <check> = <value>`` per failing counter, so
    a lossy run is visible (and nameable) straight from the report.
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
            elif any(check.waived and not check.passed
                     for check in metrics.checks):
                verdict = "WAIVED"
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
    platform_factory: Optional[Callable[[], PlatformConfig]] = None,
    include_attacks: bool = True,
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
    enforce_integrity: bool = False,
    waive: tuple = (),
) -> str:
    """Run the full evaluation and return it as a markdown document.

    ``jobs`` and ``cache`` are forwarded to the three
    cell-based experiment runners (the attack matrix stays in-process:
    its scenarios share mutable victim systems).  The report
    always ends with a run-health section; ``enforce_integrity``
    additionally *fails* generation with an IntegrityError when the
    monitoring pipeline lost events (``waive`` accepts named checks).
    """
    if platform_factory is None:
        platform_factory = lambda: PlatformConfig(  # noqa: E731
            dram_bytes=192 * 1024 * 1024, secure_bytes=24 * 1024 * 1024
        )
    runner_kwargs = {"jobs": jobs, "cache": cache,
                     "enforce_integrity": enforce_integrity, "waive": waive}
    lines: List[str] = [
        "# Hypernel reproduction — evaluation report",
        "",
        f"Workload scale: {scale}; platform: "
        f"{platform_factory().dram_bytes // (1 << 20)} MB DRAM.",
        "",
        "## Table 1 — LMbench kernel operations (µs)",
        "",
        "| test | native | kvm-guest | hypernel | paper native | paper kvm | paper hypernel |",
        "|---|---|---|---|---|---|---|",
    ]
    table1 = run_table1(platform_factory=platform_factory, **runner_kwargs)
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
    fig6 = run_figure6(scale=scale, platform_factory=platform_factory,
                       **runner_kwargs)
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
    table2 = run_table2(scale=scale, platform_factory=platform_factory,
                        **runner_kwargs)
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
    if include_attacks:
        lines += ["", "## Attack matrix", ""]
        lines += _attack_matrix(platform_factory)
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
