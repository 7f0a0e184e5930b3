"""Evaluation harness: runners and formatters for the paper's results.

* :mod:`repro.analysis.paper` — the numbers the paper reports (Table 1,
  Table 2, Figure 6 averages), used for side-by-side comparison.
* :mod:`repro.analysis.tables` — Table 1 runner (LMbench, three systems).
* :mod:`repro.analysis.figures` — Figure 6 runner (application
  benchmarks, normalized) and an ASCII bar chart.
* :mod:`repro.analysis.monitoring` — Table 2 runner (word- vs
  page-granularity trap counts).
* :mod:`repro.analysis.compare` — overhead math and table formatting.
"""

from repro.analysis.compare import overhead_percent
from repro.analysis.figures import Figure6Result, run_figure6
from repro.analysis.monitoring import Table2Result, run_table2
from repro.analysis.report import generate_report
from repro.analysis.tables import Table1Result, run_table1

__all__ = [
    "Figure6Result",
    "Table1Result",
    "Table2Result",
    "generate_report",
    "overhead_percent",
    "run_figure6",
    "run_table1",
    "run_table2",
]
