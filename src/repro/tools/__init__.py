"""Developer tooling: bus tracing and the parallel cell runner."""

from repro.utils.lazy import lazy_exports

#: public name -> defining module, imported on first access (PEP 562):
#: the runner never pulls in the bus tracer's simulator imports.
_EXPORTS = {
    "BusTracer": "repro.tools.trace",
    "Cell": "repro.tools.runner",
    "CellCache": "repro.tools.runner",
    "RunnerError": "repro.tools.runner",
    "TraceRecord": "repro.tools.trace",
    "default_cache_dir": "repro.tools.runner",
    "run_cells": "repro.tools.runner",
}

__all__ = [
    "BusTracer",
    "Cell",
    "CellCache",
    "RunnerError",
    "TraceRecord",
    "default_cache_dir",
    "run_cells",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
