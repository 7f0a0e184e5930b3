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
    label, a JSON-ish ``spec`` (op list, scale, warmup/iterations) and
    an optional :class:`~repro.config.PlatformConfig`.  Cells must be
    picklable; they are shipped whole to worker processes.

:func:`run_cells`
    Fans cells out over one of three interchangeable backends — the
    fork server (persistent warm workers, copy-on-write machine
    images; see :mod:`repro.tools.forkserver`), a
    ``ProcessPoolExecutor``, or in-process serial execution — with a
    per-job timeout, one retry on worker failure, and graceful
    degradation (``forkserver`` → ``pool`` → ``serial``) on platforms
    that cannot support the faster path.  Results come back in cell
    order, so merging is deterministic and the merged tables are
    byte-identical across backends.

:class:`CellCache`
    A content-addressed on-disk cache (default ``benchmarks/.cache/``).
    Keys hash the cell parameters together with every
    :class:`~repro.config.CostModel` and
    :class:`~repro.kernel.kernel.OpCosts` constant and the package
    version, so edits that can change cycle accounting invalidate
    cached results automatically.

The executor for a cell is resolved from :data:`KIND_EXECUTORS` by
dotted path at execution time (in the worker process), which keeps this
module import-light and works under both ``fork`` and ``spawn`` start
methods.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import signal
import time
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.config import PlatformConfig

#: Cache-key schema version; bump when the key recipe or payload
#: layout changes so stale entries can never be misread.
CACHE_SCHEMA = 1

#: Default per-job timeout (seconds).  Generous: a paper-scale cell is
#: minutes of work; the timeout exists to surface a hung worker instead
#: of stalling the pool forever.
DEFAULT_TIMEOUT = 600.0

#: cell kind -> "module:function" executed (in the worker) to run it.
KIND_EXECUTORS: Dict[str, str] = {
    "table1": "repro.analysis.tables:execute_cell",
    "figure6": "repro.analysis.figures:execute_cell",
    "table2": "repro.analysis.monitoring:execute_cell",
    # Test-only workload used by the runner's own test suite: echoes,
    # fails, fails-once (marker file) or sleeps on demand.
    "selftest": "repro.tools.runner:execute_selftest_cell",
}

#: cell kind -> "module:function" returning ``(system_name, build_kwargs)``
#: for the cell's environment.  Used by :func:`attach_boot_snapshots` to
#: key and build shared post-boot images (repro.state warm starts).
KIND_BUILDERS: Dict[str, str] = {
    "table1": "repro.analysis.tables:cell_build_args",
    "figure6": "repro.analysis.figures:cell_build_args",
    "table2": "repro.analysis.monitoring:cell_build_args",
}

#: cell kind -> "module:function" building the pristine machine for a
#: cell's environment (``cell_system``).  A fork server constructs this
#: prototype once and forks a copy-on-write child per cell.
KIND_PROTOTYPES: Dict[str, str] = {
    "table1": "repro.analysis.tables:cell_system",
    "figure6": "repro.analysis.figures:cell_system",
    "table2": "repro.analysis.monitoring:cell_system",
}

#: cell kind -> "module:function" running a cell's workload body on an
#: already-built system (``execute_cell_on``).  The fork-server child
#: entry point; the serial/pool paths reach the same body through
#: :data:`KIND_EXECUTORS`.
KIND_ON_SYSTEM: Dict[str, str] = {
    "table1": "repro.analysis.tables:execute_cell_on",
    "figure6": "repro.analysis.figures:execute_cell_on",
    "table2": "repro.analysis.monitoring:execute_cell_on",
}

#: Valid values for ``run_cells(backend=...)`` and ``REPRO_BENCH_BACKEND``.
BACKENDS = ("auto", "forkserver", "pool", "serial")


def validate_backend(value: str, source: str = "backend") -> str:
    """Normalize a backend name, raising a clear error on nonsense.

    Case and surrounding whitespace are forgiven (``"Pool"`` from a CI
    matrix means ``pool``); anything else raises :class:`ValueError`
    naming both the offending ``source`` (the argument or the
    ``REPRO_BENCH_BACKEND`` environment variable) and every valid
    backend.  An unrecognized value must fail loudly here — silently
    degrading to a different backend would misattribute every benchmark
    number produced under the typo.
    """
    normalized = str(value).strip().lower()
    if normalized not in BACKENDS:
        raise ValueError(
            f"{source}: unknown backend {value!r}; valid backends are "
            f"{', '.join(BACKENDS)}"
        )
    return normalized


def resolve_hook(target: str) -> Callable:
    """Resolve a ``"module:function"`` registry entry to the callable."""
    module_name, _, func_name = target.partition(":")
    return getattr(import_module(module_name), func_name)


class RunnerError(RuntimeError):
    """A cell could not be executed (after its retry) or timed out."""

    def __init__(self, message: str, cell: Optional["Cell"] = None):
        super().__init__(message)
        self.cell = cell


@dataclass
class Cell:
    """One independent experiment job.

    ``spec`` should stay JSON-serializable for the cell to be cacheable;
    non-JSON values (e.g. caller-supplied workload objects) are allowed
    but silently make the cell uncacheable.
    """

    kind: str
    environment: str
    workload: str
    spec: Dict[str, Any] = field(default_factory=dict)
    platform_config: Optional[PlatformConfig] = None
    cacheable: bool = True
    #: path to a post-boot snapshot to warm-start from (set by
    #: :func:`attach_boot_snapshots`).  Deliberately *not* part of the
    #: cache key — the snapshot's content hash goes into
    #: ``spec["boot_snapshot"]`` instead, so a cached result is keyed by
    #: what the image contains, never by where it happens to live.
    snapshot_path: Optional[str] = None

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
        return {"value": cell.spec.get("value"), "accesses": 0, "sim_cycles": 0}
    if mode == "fail":
        raise RuntimeError(f"injected failure for {cell.label()}")
    if mode == "fail_until_marker":
        marker = pathlib.Path(cell.spec["marker"])
        if not marker.exists():
            marker.write_text("first attempt failed\n")
            raise RuntimeError(f"injected first-attempt failure for {cell.label()}")
        return {"value": "ok after retry", "accesses": 0, "sim_cycles": 0}
    if mode == "sleep":
        time.sleep(float(cell.spec.get("seconds", 1.0)))
        return {"value": "slept", "accesses": 0, "sim_cycles": 0}
    if mode == "kill_until_marker":
        # Process-backend fault injection: SIGKILL the worker mid-cell
        # on the first attempt (no exception, no cleanup — the worker
        # just vanishes).  Only meaningful under forkserver/pool; in a
        # serial run this would kill the caller.
        marker = pathlib.Path(cell.spec["marker"])
        if not marker.exists():
            marker.write_text("first attempt killed\n")
            os.kill(os.getpid(), signal.SIGKILL)
        return {"value": "ok after respawn", "accesses": 0, "sim_cycles": 0}
    raise RunnerError(f"unknown selftest mode {mode!r}", cell)


# ----------------------------------------------------------------------
# Content-addressed result cache
# ----------------------------------------------------------------------
def default_cache_dir() -> pathlib.Path:
    """``REPRO_CACHE_DIR`` or ``benchmarks/.cache`` under the cwd."""
    return pathlib.Path(os.environ.get("REPRO_CACHE_DIR", "benchmarks/.cache"))


def cost_fingerprint(platform_config: Optional[PlatformConfig]) -> Dict[str, Any]:
    """Every constant that can change cycle accounting.

    The platform config embeds its :class:`CostModel`; kernel base
    compute costs come from :class:`OpCosts` defaults (cells always
    build kernels with the default :class:`KernelConfig`).
    """
    from repro.kernel.kernel import OpCosts

    config = platform_config if platform_config is not None else PlatformConfig()
    return {
        "platform": dataclasses.asdict(config),
        "op_costs": dataclasses.asdict(OpCosts()),
    }


def cache_key(cell: Cell) -> Optional[str]:
    """Content hash for a cell, or ``None`` if it cannot be cached."""
    if not cell.cacheable:
        return None
    from repro.tools.macroops import memoization_enabled

    document = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "kind": cell.kind,
        "environment": cell.environment,
        "workload": cell.workload,
        "spec": cell.spec,
        "costs": cost_fingerprint(cell.platform_config),
        # Payload rows/accesses/cycles are identical either way, but
        # the embedded metrics carry the memoizer's counters, so the
        # two modes must not share cache entries.
        "macroops": memoization_enabled(),
    }
    try:
        blob = json.dumps(document, sort_keys=True)
    except (TypeError, ValueError):
        return None  # non-JSON spec (e.g. injected workload objects)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CellCache:
    """On-disk JSON store of cell payloads, one file per content hash."""

    def __init__(self, directory: os.PathLike | str):
        self.directory = pathlib.Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def lookup(self, cell: Cell) -> Optional[Dict[str, Any]]:
        key = cache_key(cell)
        if key is None:
            return None
        path = self._path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            self.misses += 1
            return None
        if entry.get("schema") != CACHE_SCHEMA or "payload" not in entry:
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def store(self, cell: Cell, payload: Dict[str, Any]) -> bool:
        key = cache_key(cell)
        if key is None:
            return False
        try:
            blob = json.dumps(
                {"schema": CACHE_SCHEMA, "cell": cell.label(), "payload": payload},
                indent=2,
            )
        except (TypeError, ValueError):
            return False  # non-JSON payload: skip caching, don't fail the run
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self._path(key).with_suffix(".tmp")
        tmp.write_text(blob + "\n")
        tmp.replace(self._path(key))  # atomic: a reader never sees half a file
        self.stores += 1
        return True


# ----------------------------------------------------------------------
# Cache maintenance (python -m repro cache {info,prune})
# ----------------------------------------------------------------------
def cache_contents(
    directory: Optional[os.PathLike | str] = None,
) -> Dict[str, Any]:
    """Inventory of the on-disk cache: result entries and boot snapshots.

    Returns ``{"directory", "entries", "total_bytes"}`` where each entry
    is ``{"path", "kind", "bytes", "mtime"}`` (kind is ``result`` for
    ``*.json`` payloads, ``snapshot`` for ``snapshots/*.snap`` images).
    """
    base = (pathlib.Path(directory) if directory is not None
            else default_cache_dir())
    entries: List[Dict[str, Any]] = []
    for path in sorted(base.glob("*.json")) + sorted(
        (base / "snapshots").glob("*.snap")
    ):
        try:
            stat = path.stat()
        except OSError:
            continue  # raced with a concurrent prune
        entries.append({
            "path": str(path),
            "kind": "snapshot" if path.suffix == ".snap" else "result",
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
    entry is simply recomputed (or the snapshot re-booted) on next use.
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
# Warm-start boot snapshots
# ----------------------------------------------------------------------
def attach_boot_snapshots(
    cells: List[Cell],
    cache_dir: Optional[os.PathLike | str] = None,
) -> List[Cell]:
    """Give each cell a shared post-boot snapshot for its environment.

    Cells of the same kind and environment (same build arguments and
    cost fingerprint) share one content-addressed boot image under
    ``<cache_dir>/snapshots/``; each is built at most once per call —
    and at most once *ever* per configuration, since existing images
    are reused.  The executor then restores instead of booting, and the
    image's content hash is folded into ``spec["boot_snapshot"]`` so
    warm results get distinct cache keys from cold ones.

    Restore-then-run is bit-identical to boot-then-run (the repro.state
    contract), so merged tables stay byte-identical either way.
    """
    # Imported lazily: repro.state pulls in the builders, and keeping
    # this module import-light matters for spawn-start worker processes.
    from repro import state
    from repro.core.hypernel import build_system

    directory = (pathlib.Path(cache_dir) if cache_dir is not None
                 else default_cache_dir())
    built: Dict[str, Tuple[str, str]] = {}
    for cell in cells:
        if cell.kind not in KIND_BUILDERS:
            continue
        module_name, _, func_name = KIND_BUILDERS[cell.kind].partition(":")
        build_args = getattr(import_module(module_name), func_name)
        name, kwargs = build_args(cell)
        key = state.boot_image_key(name, kwargs, cell.platform_config)
        if key not in built:
            path, content_hash = state.ensure_boot_snapshot(
                lambda **kw: build_system(name, **kw),
                name,
                kwargs,
                cell.platform_config,
                directory,
            )
            built[key] = (str(path), content_hash)
        path_str, content_hash = built[key]
        cell.snapshot_path = path_str
        cell.spec = dict(cell.spec, boot_snapshot=content_hash)
    return cells


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
def _default_executor_factory(jobs: int):
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs)


#: Minimum number of *uncached* cells before ``auto`` considers a
#: parallel backend.  Below this, process spin-up dominates: the whole
#: table1 grid is 3 cells and ran *slower* under the 4-job pool (1.53s)
#: than serial (1.24s).  Explicit ``backend=``/``REPRO_BENCH_BACKEND``
#: choices are unaffected — the threshold only shapes ``auto``.
AUTO_MIN_CELLS = 8


def _resolve_backend(backend: str, jobs: int, executor_factory,
                     pending: Optional[int] = None) -> str:
    """Pick the concrete backend: env override > argument > heuristic.

    ``REPRO_BENCH_BACKEND`` wins over the argument (CI uses it to force
    the pool fallback fleet-wide without threading a flag through every
    entry point).  ``auto`` resolves to serial when fewer than
    :data:`AUTO_MIN_CELLS` cells actually need computing (``pending``,
    when the caller knows it), else to the fork server when the
    platform can fork and ``jobs > 1``, else to the pool — which itself
    degrades to serial below (unchanged legacy behavior).  A caller
    supplying ``executor_factory`` is handed the pool path: the factory
    *is* pool machinery, and tests use it to observe dispatch.
    """
    forced = os.environ.get("REPRO_BENCH_BACKEND")
    if forced:
        choice = validate_backend(forced, source="REPRO_BENCH_BACKEND")
    else:
        choice = validate_backend(backend)
    if choice == "auto":
        if pending is not None and pending < AUTO_MIN_CELLS:
            return "serial"
        from repro.tools import forkserver

        choice = ("forkserver"
                  if jobs > 1 and forkserver.fork_available() else "pool")
    if choice == "forkserver" and executor_factory is not None:
        # The factory *is* pool machinery; tests use it to observe
        # dispatch, which the fork server cannot honour.
        choice = "pool"
    return choice


def _run_serial(cell: Cell) -> Dict[str, Any]:
    """Execute in-process with the same one-retry policy as the pool."""
    try:
        return execute_cell(cell)
    except RunnerError:
        raise
    except Exception as first:
        try:
            return execute_cell(cell)
        except Exception as second:
            raise RunnerError(
                f"cell {cell.label()} failed after retry: {second!r} "
                f"(first attempt: {first!r})",
                cell,
            ) from second


def run_cells(
    cells: List[Cell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    executor_factory: Optional[Callable[[int], Any]] = None,
    backend: str = "auto",
    integrity: str = "ignore",
    waive: Tuple[str, ...] = (),
) -> List[Dict[str, Any]]:
    """Execute every cell and return payloads in cell order.

    * ``backend`` selects how uncached cells run: ``forkserver``
      (persistent warm server per environment, one copy-on-write child
      per cell — see :mod:`repro.tools.forkserver`), ``pool``
      (``executor_factory(jobs)``, default ``ProcessPoolExecutor``),
      ``serial`` (in-process), or ``auto`` (serial when fewer than
      :data:`AUTO_MIN_CELLS` uncached cells remain — tiny grids lose
      more to process spin-up than they gain from fan-out — else fork
      server when the platform can fork and ``jobs > 1``, else pool).
      The ``REPRO_BENCH_BACKEND`` environment variable overrides the
      argument.  Each step degrades gracefully: no ``fork`` → pool, no
      pool (or ``jobs=1``, or a single pending cell) → serial.
      The per-cell workload body is identical on every backend, so
      merged results are byte-identical.
    * A cell whose worker raises (or whose pool breaks) is retried once
      — in-process for the pool, from the pristine parent image for the
      fork server; a second failure raises :class:`RunnerError` naming
      the cell.  A job exceeding ``timeout`` seconds raises
      :class:`RunnerError` immediately — a hung worker cannot be
      retried without leaking it.
    * With a ``cache``, cacheable cells are looked up first and
      computed payloads are stored back; a fully warm cache dispatches
      zero jobs (no backend process is ever started).
    * ``integrity="enforce"`` checks the ``"metrics"`` block every cell
      executor embeds in its payload (repro.obs) and raises
      :class:`~repro.errors.IntegrityError` if the monitoring pipeline
      lost events in any cell — *including cached payloads*, so a lossy
      result can never hide in the cache.  ``waive`` names checks
      (``"mbm_fifo.overrun"``-style) to accept.  The default
      ``"ignore"`` keeps enforcement opt-in.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if integrity not in ("ignore", "enforce"):
        raise ValueError(
            f"integrity must be 'ignore' or 'enforce', got {integrity!r}"
        )

    def _finish(
        payloads: List[Optional[Dict[str, Any]]]
    ) -> List[Dict[str, Any]]:
        if integrity == "enforce":
            from repro.obs.metrics import verify_payload_integrity

            verify_payload_integrity(
                [cell.label() for cell in cells], payloads, waive=waive
            )
        return payloads  # type: ignore[return-value]

    results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    pending: List[int] = []
    for index, cell in enumerate(cells):
        payload = cache.lookup(cell) if cache is not None else None
        if payload is not None:
            results[index] = payload
        else:
            pending.append(index)

    # Resolve after the cache pass so ``auto`` sees the true amount of
    # work left (a warm cache or a tiny grid should never pay process
    # spin-up).  Resolving on the empty list still validates the name.
    resolved = _resolve_backend(backend, jobs, executor_factory,
                                pending=len(pending))

    if pending:
        if resolved == "forkserver":
            from repro.tools import forkserver

            try:
                payloads = forkserver.run_pending(cells, pending, jobs, timeout)
            except forkserver.ForkServerUnavailable:
                resolved = "pool"  # platform cannot fork: degrade
            else:
                for index in pending:
                    results[index] = payloads[index]
                if cache is not None:
                    for index in pending:
                        cache.store(cells[index], results[index])
                return _finish(results)

        pool = None
        if resolved == "pool" and jobs > 1 and len(pending) > 1:
            factory = executor_factory or _default_executor_factory
            try:
                pool = factory(min(jobs, len(pending)))
            except (ImportError, NotImplementedError, OSError, PermissionError):
                pool = None  # e.g. sandboxed host without fork: fall back
        if pool is None:
            for index in pending:
                results[index] = _run_serial(cells[index])
        else:
            futures = [(index, pool.submit(execute_cell, cells[index]))
                       for index in pending]
            try:
                for index, future in futures:
                    cell = cells[index]
                    try:
                        results[index] = future.result(timeout=timeout)
                    except _FutureTimeout:
                        raise RunnerError(
                            f"cell {cell.label()} timed out after {timeout:.0f}s",
                            cell,
                        ) from None
                    except RunnerError:
                        raise
                    except Exception as first:
                        # One retry, in-process: also covers a crashed
                        # worker (BrokenProcessPool) without re-raising
                        # into a possibly-broken pool.
                        try:
                            results[index] = execute_cell(cell)
                        except Exception as second:
                            raise RunnerError(
                                f"cell {cell.label()} failed after retry: "
                                f"{second!r} (first attempt: {first!r})",
                                cell,
                            ) from second
            except BaseException:
                # Don't wait on stuck/remaining workers; just detach.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            pool.shutdown(wait=True)
        if cache is not None:
            for index in pending:
                cache.store(cells[index], results[index])

    return _finish(results)
