"""Workloads: LMbench micro-operations and application models.

:mod:`repro.workloads.lmbench` drives the nine kernel operations of the
paper's Table 1; :mod:`repro.workloads.apps` models the five application
benchmarks (whetstone, dhrystone, untar, iozone, apache) used in
Figure 6 and Table 2.
"""

from repro.utils.lazy import lazy_exports

#: public name -> defining module, imported on first access (PEP 562):
#: Table 1, which needs only the LMbench names, never loads the
#: application models.
_EXPORTS = {
    "ApacheWorkload": "repro.workloads.apps",
    "ApplicationWorkload": "repro.workloads.apps",
    "DhrystoneWorkload": "repro.workloads.apps",
    "IozoneWorkload": "repro.workloads.apps",
    "LMBENCH_OPS": "repro.workloads.lmbench",
    "LmbenchSuite": "repro.workloads.lmbench",
    "UntarWorkload": "repro.workloads.apps",
    "WhetstoneWorkload": "repro.workloads.apps",
    "default_applications": "repro.workloads.apps",
}

__all__ = [
    "ApacheWorkload",
    "ApplicationWorkload",
    "DhrystoneWorkload",
    "IozoneWorkload",
    "LMBENCH_OPS",
    "LmbenchSuite",
    "UntarWorkload",
    "WhetstoneWorkload",
    "default_applications",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
