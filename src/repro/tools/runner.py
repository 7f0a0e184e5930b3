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
    pending, in-process otherwise — with a per-job timeout
    (:data:`DEFAULT_TIMEOUT`), one in-process retry of a cell whose
    worker process crashed, and a serial fallback on platforms that
    cannot start a pool.  ``jobs`` defaults to every CPU this process
    may run on (:func:`available_cpus`).  Results come back in cell order, so
    merging is deterministic and the merged tables are byte-identical
    at any ``jobs``.  Every payload, cached or computed, must carry a
    run-metrics report whose integrity checks (:mod:`repro.obs`) all
    read zero, or the run fails.

:class:`CellCache`
    A content-addressed on-disk cache (default ``benchmarks/.cache/``).
    Keys hash the cell parameters together with its platform config
    (every :class:`~repro.config.CostModel` constant included) and a
    digest of the package's source files (:func:`source_digest`), so
    edits that can change cycle accounting invalidate cached results
    automatically.  A cached payload without a ``metrics`` report is a
    miss.  Each entry records the source digest that wrote it, so
    :func:`prune_cache` deletes exactly the entries no lookup can hit.

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
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional

from repro.config import PlatformConfig, default_platform_config
from repro.errors import RunnerError

#: Default per-job timeout (seconds).  Generous: a paper-scale cell is
#: minutes of work; the timeout exists to surface a hung worker instead
#: of stalling the pool forever.
DEFAULT_TIMEOUT = 600.0

#: cell kind -> "module:function" executed (in the worker) to run it.
KIND_EXECUTORS: Dict[str, str] = {
    "table1": "repro.analysis.tables:execute_cell",
    "figure6": "repro.analysis.figures:execute_cell",
    "table2": "repro.analysis.monitoring:execute_cell",
}


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
    """Every constant a cell can set that changes cycle accounting.

    A cell without a platform config is keyed by the one the system
    builders boot in its place.  The platform config embeds its
    :class:`CostModel`.  Kernel base compute costs are :class:`OpCosts`
    defaults (cells always build kernels with the default
    :class:`KernelConfig`), which are source text and so already part
    of :func:`source_digest`.
    """
    config = platform_config or default_platform_config()
    return {"platform": dataclasses.asdict(config)}


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

    The cache never costs a run its results: an unreadable entry, or
    one whose payload carries no ``metrics`` report, is a miss, and a
    store that fails (e.g. the directory is a file or not
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
        except (OSError, ValueError):  # unreadable, not UTF-8 or not JSON
            entry = None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if not (isinstance(payload, dict)
                and isinstance(payload.get("metrics"), dict)):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, cell: Cell, payload: Dict[str, Any]) -> bool:
        path = self._path(cache_key(cell))
        blob = json.dumps(
            {"cell": cell.label(), "source": source_digest(),
             "payload": payload},
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
def _stale(path: pathlib.Path) -> bool:
    """Whether no lookup can hit the entry: written by a different
    source (or before entries recorded one), or unreadable."""
    try:
        with open(path) as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return True
    return not (isinstance(entry, dict)
                and entry.get("source") == source_digest())


def cache_contents(
    directory: Optional[os.PathLike | str] = None,
) -> Dict[str, Any]:
    """Inventory of the on-disk cache's result entries (``*.json``).

    Returns ``{"directory", "entries", "total_bytes"}`` where each entry
    is ``{"path", "bytes", "stale"}``; a stale entry was written by
    a different source, or cannot be read.
    """
    base = (pathlib.Path(directory) if directory is not None
            else default_cache_dir())
    entries: List[Dict[str, Any]] = []
    for path in sorted(base.glob("*.json")):
        try:
            size = path.stat().st_size
        except OSError:
            continue  # raced with a concurrent prune
        entries.append({"path": str(path), "bytes": size,
                        "stale": _stale(path)})
    return {
        "directory": str(base),
        "entries": entries,
        "total_bytes": sum(entry["bytes"] for entry in entries),
    }


def prune_cache(directory: Optional[os.PathLike | str] = None) -> List[str]:
    """Delete every entry the current source can never hit; returns the
    paths removed.

    Keys hash :func:`source_digest`, so an entry written by a different
    source is dead weight, and so is one that cannot be read.  Every
    entry the current source wrote stays.
    """
    removed: List[str] = []
    for entry in cache_contents(directory)["entries"]:
        if entry["stale"]:
            try:
                pathlib.Path(entry["path"]).unlink()
            except OSError:
                continue
            removed.append(entry["path"])
    return removed


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
) -> List[Dict[str, Any]]:
    """Execute every cell and return payloads in cell order.

    * ``jobs`` alone picks how uncached cells run; ``None`` (the
      default) means :func:`available_cpus`.  With ``jobs > 1`` and
      more than one uncached cell, they go to a pool of
      ``min(jobs, pending)`` workers (a ``ProcessPoolExecutor``);
      otherwise — or if the pool cannot be created (sandboxed host,
      no ``fork``) — they run in-process.  The per-cell workload body is the same either way,
      so merged results are byte-identical.
    * A cell that raises fails the run at once with a
      :class:`RunnerError` naming the cell: a cell is a deterministic
      simulation, so running it again would raise again.  Only a cell
      whose worker process crashed (``BrokenProcessPool``) runs once
      more, in-process.  A job exceeding :data:`DEFAULT_TIMEOUT`
      seconds raises :class:`RunnerError` immediately — a hung worker
      cannot be retried without leaking it.
    * With a ``cache``, cells are looked up first and computed payloads
      are stored back; a fully warm cache dispatches zero jobs (no
      worker process is ever started).
    * Every payload's ``"metrics"`` block (repro.obs) is checked once
      all cells are in: :class:`~repro.errors.IntegrityError` names the
      cell and check if the monitoring pipeline lost events —
      *including in cached payloads*, so a lossy result can never hide
      in the cache — or the cell if its payload carries no report.
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

            try:
                pool = _default_executor_factory(min(jobs, len(pending)))
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
                        results[index] = future.result(timeout=DEFAULT_TIMEOUT)
                    except FutureTimeout:
                        raise RunnerError(
                            f"cell {cell.label()} timed out after "
                            f"{DEFAULT_TIMEOUT:.0f}s",
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

    verify_payload_integrity([cell.label() for cell in cells], results)
    return results  # type: ignore[return-value]
