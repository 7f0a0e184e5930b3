"""Parallel experiment runner: (environment × workload) cells.

``run_table1``/``run_figure6``/``run_table2`` each iterate over
independent *environments* (the three system configurations, or the two
monitoring granularities), building a fresh simulated machine for each
one.  The simulator is deterministic and seeded (DESIGN.md §5), so
those iterations are embarrassingly parallel and their results are
safely cacheable by input hash.  This module provides the shared
machinery:

:class:`Cell`
    One independent unit of experiment work: an executor ``kind``, the
    ``environment`` it builds (system name or granularity), a workload
    label, a JSON ``spec`` (op list, scale, warmup/iterations, app
    names) and an optional :class:`~repro.config.PlatformConfig`.
    Cells are plain data: every one has a cache key, and they are
    shipped whole to worker processes.

:func:`run_cells`
    Runs the cells that miss the cache: over a
    ``ProcessPoolExecutor`` when ``jobs > 1`` and more than one cell is
    pending, in-process otherwise — with a per-job timeout, one
    in-process retry of a cell whose worker process crashed, and a
    serial fallback on platforms that cannot start a pool.  ``jobs``
    defaults to every CPU this process may run on
    (:func:`available_cpus`).  Results come back in cell order, so
    merging is deterministic and the merged tables are byte-identical
    at any ``jobs``.  Every payload, cached or computed, must pass the
    run-integrity checks (:mod:`repro.obs`) unless they are waived.

:class:`CellCache`
    A content-addressed on-disk cache (default ``benchmarks/.cache/``).
    Keys hash the cell parameters together with every
    :class:`~repro.config.CostModel` and :class:`~repro.config.OpCosts`
    constant and a digest of the
    package's source files (:func:`source_digest`), so edits that can
    change cycle accounting invalidate cached results automatically.

The executor for a cell is resolved from :data:`KIND_EXECUTORS` by
dotted path at execution time (in the worker process), which keeps this
module import-light and works under both ``fork`` and ``spawn`` start
methods.  ``concurrent.futures`` (and with it ``multiprocessing``) is
imported only when a pool is built, so a run served from the cache
never loads it (DESIGN.md §5b).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import OpCosts, PlatformConfig

#: Default per-job timeout (seconds).  Generous: a paper-scale cell is
#: minutes of work; the timeout exists to surface a hung worker instead
#: of stalling the pool forever.
DEFAULT_TIMEOUT = 600.0

#: cell kind -> "module:function" executed (in the worker) to run it.
KIND_EXECUTORS: Dict[str, str] = {
    "table1": "repro.analysis.tables:execute_cell",
    "figure6": "repro.analysis.figures:execute_cell",
    "table2": "repro.analysis.monitoring:execute_cell",
    # Test-only workload used by the runner's own test suite: echoes
    # (with an optional ``metrics`` block), fails, fails-once (marker
    # file) or sleeps on demand.
    "selftest": "repro.tools.runner:execute_selftest_cell",
}

class RunnerError(RuntimeError):
    """A cell raised, crashed its worker and then raised in-process, or
    timed out."""

    def __init__(self, message: str, cell: Optional["Cell"] = None):
        super().__init__(message)
        self.cell = cell


@dataclass
class Cell:
    """One independent experiment job.

    ``spec`` holds JSON values only (workloads travel by name), so every
    cell has a cache key.
    """

    kind: str
    environment: str
    workload: str
    spec: Dict[str, Any] = field(default_factory=dict)
    platform_config: Optional[PlatformConfig] = None

    def label(self) -> str:
        return f"{self.kind}:{self.environment}:{self.workload}"


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _resolve_executor(kind: str) -> Callable[[Cell], Dict[str, Any]]:
    try:
        target = KIND_EXECUTORS[kind]
    except KeyError:
        raise RunnerError(
            f"unknown cell kind {kind!r}; choose from {sorted(KIND_EXECUTORS)}"
        ) from None
    module_name, _, func_name = target.partition(":")
    return getattr(import_module(module_name), func_name)


def execute_cell(cell: Cell) -> Dict[str, Any]:
    """Run one cell to completion and return its payload dict.

    This is the function shipped to worker processes; it must stay
    module-level (picklable by qualified name).
    """
    return _resolve_executor(cell.kind)(cell)


def execute_selftest_cell(cell: Cell) -> Dict[str, Any]:
    """Executor for the test-only ``selftest`` kind."""
    mode = cell.spec.get("mode", "echo")
    if mode == "echo":
        payload = {"value": cell.spec.get("value"), "accesses": 0,
                   "sim_cycles": 0}
        if "metrics" in cell.spec:
            payload["metrics"] = cell.spec["metrics"]
        return payload
    if mode == "fail":
        raise RuntimeError(f"injected failure for {cell.label()}")
    if mode == "fail_until_marker":
        marker = pathlib.Path(cell.spec["marker"])
        if not marker.exists():
            marker.write_text("first attempt failed\n")
            raise RuntimeError(f"injected first-attempt failure for {cell.label()}")
        return {"value": "ok on a later attempt", "accesses": 0,
                "sim_cycles": 0}
    if mode == "sleep":
        time.sleep(float(cell.spec.get("seconds", 1.0)))
        return {"value": "slept", "accesses": 0, "sim_cycles": 0}
    if mode == "kill_until_marker":
        # Pool fault injection: SIGKILL the worker mid-cell on the
        # first attempt (no exception, no cleanup — the worker just
        # vanishes).  Only meaningful in a pooled run; in a serial run
        # this would kill the caller.  ``pid`` shows where the retry ran.
        marker = pathlib.Path(cell.spec["marker"])
        if not marker.exists():
            marker.write_text("first attempt killed\n")
            os.kill(os.getpid(), signal.SIGKILL)
        return {"value": "ok after kill", "pid": os.getpid(),
                "accesses": 0, "sim_cycles": 0}
    raise RunnerError(f"unknown selftest mode {mode!r}", cell)


# ----------------------------------------------------------------------
# Content-addressed result cache
# ----------------------------------------------------------------------
def default_cache_dir() -> pathlib.Path:
    """``REPRO_CACHE_DIR`` or ``benchmarks/.cache`` under the cwd."""
    return pathlib.Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/.cache"))


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the sorted relative paths and bytes of the package's
    ``*.py`` files.

    Cache keys carry it instead of a hand-set version string, so any
    source edit (this module's own key recipe included) misses the
    cache.  Computed lazily, once per process.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for relative in sorted(p.relative_to(root).as_posix()
                           for p in root.rglob("*.py")):
        data = (root / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def cost_fingerprint(platform_config: Optional[PlatformConfig]) -> Dict[str, Any]:
    """Every constant that can change cycle accounting.

    The platform config embeds its :class:`CostModel`; kernel base
    compute costs come from :class:`OpCosts` defaults (cells always
    build kernels with the default :class:`KernelConfig`).
    """
    config = platform_config if platform_config is not None else PlatformConfig()
    return {
        "platform": dataclasses.asdict(config),
        "op_costs": dataclasses.asdict(OpCosts()),
    }


def cache_key(cell: Cell) -> str:
    """Content hash for a cell."""
    document = {
        "source": source_digest(),
        "kind": cell.kind,
        "environment": cell.environment,
        "workload": cell.workload,
        "spec": cell.spec,
        "costs": cost_fingerprint(cell.platform_config),
    }
    blob = json.dumps(document, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CellCache:
    """On-disk JSON store of cell payloads, one file per content hash.

    The cache never costs a run its results: an unreadable entry is a
    miss, and a store that fails (e.g. the directory is a file or not
    writable) is skipped with one warning on stderr per cache.
    """

    def __init__(self, directory: os.PathLike | str):
        self.directory = pathlib.Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.failed_stores = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def lookup(self, cell: Cell) -> Optional[Dict[str, Any]]:
        path = self._path(cache_key(cell))
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if "payload" not in entry:
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def store(self, cell: Cell, payload: Dict[str, Any]) -> bool:
        path = self._path(cache_key(cell))
        blob = json.dumps(
            {"cell": cell.label(), "payload": payload},
            indent=2,
        )
        # A private temp file per store, then an atomic rename: concurrent
        # writers of one key never share a temp file, and a reader never
        # sees half a file.
        tmp = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(blob + "\n")
            os.replace(tmp, path)
            tmp = None
        except OSError as exc:
            if not self.failed_stores:
                print(f"warning: cannot store results in cache "
                      f"{self.directory}: {exc}", file=sys.stderr)
            self.failed_stores += 1
            return False
        finally:
            if tmp is not None:
                pathlib.Path(tmp).unlink(missing_ok=True)
        self.stores += 1
        return True


# ----------------------------------------------------------------------
# Cache maintenance (python -m repro cache {info,prune})
# ----------------------------------------------------------------------
def cache_contents(
    directory: Optional[os.PathLike | str] = None,
) -> Dict[str, Any]:
    """Inventory of the on-disk cache's result entries (``*.json``).

    Returns ``{"directory", "entries", "total_bytes"}`` where each entry
    is ``{"path", "bytes", "mtime"}``.
    """
    base = (pathlib.Path(directory) if directory is not None
            else default_cache_dir())
    entries: List[Dict[str, Any]] = []
    for path in sorted(base.glob("*.json")):
        try:
            stat = path.stat()
        except OSError:
            continue  # raced with a concurrent prune
        entries.append({
            "path": str(path),
            "bytes": stat.st_size,
            "mtime": stat.st_mtime,
        })
    return {
        "directory": str(base),
        "entries": entries,
        "total_bytes": sum(entry["bytes"] for entry in entries),
    }


def prune_cache(
    directory: Optional[os.PathLike | str] = None,
    max_age_days: Optional[float] = None,
    max_bytes: Optional[int] = None,
    now: Optional[float] = None,
) -> List[str]:
    """Delete stale cache entries; returns the paths removed.

    Entries older than ``max_age_days`` go first; then, if the survivors
    still exceed ``max_bytes``, the oldest are evicted until the total
    fits.  Content-addressing makes eviction always safe — a pruned
    entry is simply recomputed on next use.
    """
    inventory = cache_contents(directory)
    cutoff = (time.time() if now is None else now)
    doomed: List[Dict[str, Any]] = []
    kept: List[Dict[str, Any]] = []
    for entry in inventory["entries"]:
        if (max_age_days is not None
                and cutoff - entry["mtime"] > max_age_days * 86400.0):
            doomed.append(entry)
        else:
            kept.append(entry)
    if max_bytes is not None:
        kept.sort(key=lambda entry: entry["mtime"])  # oldest first
        total = sum(entry["bytes"] for entry in kept)
        while kept and total > max_bytes:
            evicted = kept.pop(0)
            total -= evicted["bytes"]
            doomed.append(evicted)
    for entry in doomed:
        try:
            pathlib.Path(entry["path"]).unlink()
        except OSError:
            pass
    return [entry["path"] for entry in doomed]


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` narrows it), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _default_executor_factory(jobs: int):
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs)


def _failure(cell: Cell, exc: BaseException) -> RunnerError:
    return RunnerError(f"cell {cell.label()} failed: {exc!r}", cell)


def _run_in_process(cell: Cell) -> Dict[str, Any]:
    """Execute in-process; an exception fails the cell at once."""
    try:
        return execute_cell(cell)
    except RunnerError:
        raise
    except Exception as exc:
        raise _failure(cell, exc) from exc


def run_cells(
    cells: List[Cell],
    jobs: Optional[int] = None,
    cache: Optional[CellCache] = None,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    executor_factory: Optional[Callable[[int], Any]] = None,
    waive: Tuple[str, ...] = (),
) -> List[Dict[str, Any]]:
    """Execute every cell and return payloads in cell order.

    * ``jobs`` alone picks how uncached cells run; ``None`` (the
      default) means :func:`available_cpus`.  With ``jobs > 1`` and
      more than one uncached cell, they go to a pool of
      ``min(jobs, pending)`` workers built by ``executor_factory``
      (default ``ProcessPoolExecutor``); otherwise — or if the pool
      cannot be created (sandboxed host, no ``fork``) — they run
      in-process.  The per-cell workload body is the same either way,
      so merged results are byte-identical.
    * A cell that raises fails the run at once with a
      :class:`RunnerError` naming the cell: a cell is a deterministic
      simulation, so running it again would raise again.  Only a cell
      whose worker process crashed (``BrokenProcessPool``) runs once
      more, in-process.  A job exceeding ``timeout`` seconds raises
      :class:`RunnerError` immediately — a hung worker cannot be
      retried without leaking it.
    * With a ``cache``, cells are looked up first and computed payloads
      are stored back; a fully warm cache dispatches zero jobs (no
      worker process is ever started).
    * Every payload's ``"metrics"`` block (repro.obs) is checked once
      all cells are in: :class:`~repro.errors.IntegrityError` names the
      cell and check if the monitoring pipeline lost events —
      *including in cached payloads*, so a lossy result can never hide
      in the cache.  ``waive`` names checks (``"mbm_fifo.overrun"``-
      style) to accept.
    """
    from repro.obs.metrics import verify_payload_integrity

    if jobs is None:
        jobs = available_cpus()
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")

    results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    pending: List[int] = []
    for index, cell in enumerate(cells):
        payload = cache.lookup(cell) if cache is not None else None
        if payload is not None:
            results[index] = payload
        else:
            pending.append(index)

    if pending:
        pool = None
        if jobs > 1 and len(pending) > 1:
            from concurrent.futures import TimeoutError as FutureTimeout
            from concurrent.futures.process import BrokenProcessPool

            factory = executor_factory or _default_executor_factory
            try:
                pool = factory(min(jobs, len(pending)))
            except (ImportError, NotImplementedError, OSError, PermissionError):
                pool = None  # e.g. sandboxed host without fork: fall back
        if pool is None:
            for index in pending:
                results[index] = _run_in_process(cells[index])
        else:
            futures = [(index, pool.submit(execute_cell, cells[index]))
                       for index in pending]
            try:
                for index, future in futures:
                    cell = cells[index]
                    try:
                        results[index] = future.result(timeout=timeout)
                    except FutureTimeout:
                        raise RunnerError(
                            f"cell {cell.label()} timed out after {timeout:.0f}s",
                            cell,
                        ) from None
                    except BrokenProcessPool:
                        # The worker died (killed, out of memory), not
                        # the cell: run it once more, outside the pool.
                        results[index] = _run_in_process(cell)
                    except RunnerError:
                        raise
                    except Exception as exc:
                        raise _failure(cell, exc) from exc
            except BaseException:
                # Don't wait on stuck/remaining workers; just detach.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            pool.shutdown(wait=True)
        if cache is not None:
            for index in pending:
                cache.store(cells[index], results[index])

    verify_payload_integrity(
        [cell.label() for cell in cells], results, waive=waive
    )
    return results  # type: ignore[return-value]
