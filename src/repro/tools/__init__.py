"""Developer tooling: bus tracing and the parallel cell runner."""

from repro.tools.trace import BusTracer, TraceRecord
from repro.tools.runner import (
    Cell,
    CellCache,
    RunnerError,
    default_cache_dir,
    run_cells,
)

__all__ = [
    "BusTracer",
    "Cell",
    "CellCache",
    "RunnerError",
    "TraceRecord",
    "default_cache_dir",
    "run_cells",
]
