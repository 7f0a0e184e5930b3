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

from repro.utils.lazy import lazy_exports

#: public name -> defining module, imported on first access (PEP 562):
#: loading one runner never imports the others or the simulator.
_EXPORTS = {
    "Figure6Result": "repro.analysis.figures",
    "Table1Result": "repro.analysis.tables",
    "Table2Result": "repro.analysis.monitoring",
    "generate_report": "repro.analysis.report",
    "overhead_percent": "repro.analysis.compare",
    "run_figure6": "repro.analysis.figures",
    "run_table1": "repro.analysis.tables",
    "run_table2": "repro.analysis.monitoring",
}

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

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
