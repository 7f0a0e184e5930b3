"""Cache-key invalidation for the content-addressed result cache.

The key recipe (DESIGN.md §5b) hashes the cell parameters together with
every ``CostModel``/``OpCosts`` constant and a digest of the package's
source files: anything that can change cycle accounting must miss; an
unchanged rerun must hit without dispatching any work.
"""

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import time

import pytest

from repro.config import CostModel, PlatformConfig
from repro.tools.runner import (
    CACHE_SCHEMA,
    Cell,
    CellCache,
    cache_contents,
    cache_key,
    prune_cache,
    run_cells,
)


def small_config(**cost_overrides):
    costs = CostModel(**cost_overrides)
    return PlatformConfig(
        dram_bytes=64 * 1024 * 1024,
        secure_bytes=8 * 1024 * 1024,
        costs=costs,
    )


def echo_cell(value="x", config=None, **spec_extra):
    return Cell(
        kind="selftest",
        environment="test",
        workload="echo",
        spec={"mode": "echo", "value": value, **spec_extra},
        platform_config=config,
    )


class TestCacheKey:
    def test_same_inputs_same_key(self):
        assert cache_key(echo_cell(config=small_config())) == cache_key(
            echo_cell(config=small_config())
        )

    def test_cost_model_constant_perturbation_changes_key(self):
        base = cache_key(echo_cell(config=small_config()))
        perturbed = cache_key(echo_cell(config=small_config(l1_hit=5)))
        assert base != perturbed

    def test_spec_scale_perturbation_changes_key(self):
        base = cache_key(echo_cell(scale=0.25))
        assert cache_key(echo_cell(scale=0.5)) != base

    def test_environment_and_kind_distinguish_cells(self):
        cell = echo_cell()
        other_env = dataclasses.replace(cell, environment="other")
        other_kind = dataclasses.replace(cell, kind="table1")
        assert cache_key(cell) != cache_key(other_env)
        assert cache_key(cell) != cache_key(other_kind)

    def test_uncacheable_cell_has_no_key(self):
        assert cache_key(dataclasses.replace(echo_cell(), cacheable=False)) is None

    def test_non_json_spec_has_no_key(self):
        assert cache_key(echo_cell(apps=[object()])) is None

    def test_source_edit_changes_keys_without_version_bump(self, tmp_path):
        """A one-byte source edit with ``__version__`` untouched must
        miss the cell cache."""
        import repro

        package = pathlib.Path(repro.__file__).resolve().parent
        roots = [tmp_path / "before", tmp_path / "after"]
        for root in roots:
            shutil.copytree(package, root / "repro",
                            ignore=shutil.ignore_patterns("__pycache__"))
        edited = roots[1] / "repro" / "kernel" / "kernel.py"
        edited.write_bytes(edited.read_bytes() + b"#")
        probe = (
            "import repro\n"
            "from repro.analysis.tables import table1_cells\n"
            "from repro.tools.runner import cache_key\n"
            "cell = table1_cells()[0]\n"
            "print(repro.__file__, repro.__version__, cache_key(cell))\n"
        )
        outputs = []
        for root in roots:
            env = dict(os.environ, PYTHONPATH=str(root))
            result = subprocess.run(
                [sys.executable, "-c", probe], env=env, cwd=tmp_path,
                capture_output=True, text=True, check=True,
            )
            outputs.append(result.stdout.split())
        (file_a, version_a, cell_a), (file_b, version_b, cell_b) = outputs
        assert file_a.startswith(str(roots[0]))
        assert file_b.startswith(str(roots[1]))
        assert version_a == version_b
        assert cell_a != cell_b


class _CountingExecutor:
    """Executor stub: counts dispatches, runs cells in-process."""

    def __init__(self):
        self.submissions = 0

    def __call__(self, jobs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.submissions += 1
        from concurrent.futures import Future

        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # pragma: no cover - failure paths
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestCacheBehaviour:
    def test_unchanged_rerun_hits_with_zero_dispatches(self, tmp_path):
        cache = CellCache(tmp_path)
        cells = [echo_cell(value=i, config=small_config()) for i in range(3)]

        first = _CountingExecutor()
        cold = run_cells(cells, jobs=2, cache=cache, executor_factory=first)
        assert first.submissions == 3
        assert cache.stores == 3

        second = _CountingExecutor()
        warm = run_cells(cells, jobs=2, cache=cache, executor_factory=second)
        assert second.submissions == 0, "warm cache must dispatch nothing"
        assert cache.hits == 3
        assert warm == cold

    def test_cost_constant_perturbation_misses(self, tmp_path):
        cache = CellCache(tmp_path)
        run_cells([echo_cell(config=small_config())], cache=cache)
        executor = _CountingExecutor()
        run_cells(
            [echo_cell(config=small_config(dram_row_hit=71)),
             echo_cell(config=small_config())],
            jobs=2,
            cache=cache,
            executor_factory=executor,
        )
        # Perturbed cell recomputed; unchanged cell answered from cache.
        assert executor.submissions == 0  # single pending cell runs serially
        assert cache.hits == 1

    def test_scale_perturbation_misses(self, tmp_path):
        cache = CellCache(tmp_path)
        run_cells([echo_cell(scale=0.25)], cache=cache)
        assert cache.lookup(echo_cell(scale=0.5)) is None
        assert cache.lookup(echo_cell(scale=0.25)) is not None

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        cell = echo_cell()
        run_cells([cell], cache=cache)
        path = cache._path(cache_key(cell))
        path.write_text("{not json")
        assert cache.lookup(cell) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        cell = echo_cell()
        run_cells([cell], cache=cache)
        path = cache._path(cache_key(cell))
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(entry))
        assert cache.lookup(cell) is None

    def test_uncacheable_cell_always_recomputes(self, tmp_path):
        cache = CellCache(tmp_path)
        cell = dataclasses.replace(echo_cell(), cacheable=False)
        run_cells([cell], cache=cache)
        assert cache.stores == 0
        assert cache.lookup(cell) is None

    def test_concurrent_stores_of_one_key_all_succeed(self, tmp_path,
                                                      monkeypatch):
        # Two writers of one key (e.g. two processes sharing a cache
        # directory), interleaved deterministically: the second store
        # runs entirely between the first one's write and its rename.
        cell = echo_cell()
        outer, inner = CellCache(tmp_path), CellCache(tmp_path)
        real_replace = os.replace
        results = []
        nested = []

        def interleaving_replace(src, dst, *args, **kwargs):
            if not nested:
                nested.append(src)
                results.append(inner.store(cell, {"value": "inner"}))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", interleaving_replace)
        results.append(outer.store(cell, {"value": "outer"}))
        monkeypatch.undo()

        assert results == [True, True]
        assert CellCache(tmp_path).lookup(cell) == {"value": "outer"}
        assert list(tmp_path.glob("*.tmp")) == []


def seed_cache_dir(tmp_path, ages_days):
    """Fabricate result entries with set mtimes.

    ``ages_days`` maps filename stem -> age in days.  Every file is
    100 bytes so byte budgets are easy to reason about.  Returns
    ``now`` (the reference timestamp the ages are relative to).
    """
    now = 1_700_000_000.0
    for stem, age in ages_days.items():
        path = tmp_path / f"{stem}.json"
        path.write_bytes(b"x" * 100)
        stamp = now - age * 86400.0
        os.utime(path, (stamp, stamp))
    return now


class TestCacheMaintenance:
    def test_contents_inventories_results_and_snapshots(self, tmp_path):
        seed_cache_dir(tmp_path, {"aa": 1, "bb": 2})
        inventory = cache_contents(tmp_path)
        assert [os.path.basename(e["path"]) for e in inventory["entries"]] == [
            "aa.json", "bb.json"]
        assert inventory["total_bytes"] == 200
        assert inventory["directory"] == str(tmp_path)

    def test_contents_of_missing_directory_is_empty(self, tmp_path):
        inventory = cache_contents(tmp_path / "never-created")
        assert inventory["entries"] == []
        assert inventory["total_bytes"] == 0

    def test_prune_by_age_removes_only_stale_entries(self, tmp_path):
        now = seed_cache_dir(tmp_path, {"young": 1, "old": 30, "older": 40})
        removed = prune_cache(tmp_path, max_age_days=7, now=now)
        assert sorted(os.path.basename(p) for p in removed) == [
            "old.json", "older.json"]
        survivors = [e["path"] for e in cache_contents(tmp_path)["entries"]]
        assert survivors == [str(tmp_path / "young.json")]

    def test_prune_by_bytes_evicts_oldest_first(self, tmp_path):
        now = seed_cache_dir(tmp_path, {"newest": 1, "middle": 5, "oldest": 9})
        removed = prune_cache(tmp_path, max_bytes=250, now=now)
        assert [os.path.basename(p) for p in removed] == ["oldest.json"]
        removed = prune_cache(tmp_path, max_bytes=100, now=now)
        assert [os.path.basename(p) for p in removed] == ["middle.json"]

    def test_prune_without_limits_removes_nothing(self, tmp_path):
        now = seed_cache_dir(tmp_path, {"aa": 1, "bb": 400})
        assert prune_cache(tmp_path, now=now) == []
        assert len(cache_contents(tmp_path)["entries"]) == 2

    def test_pruned_entry_is_recomputed_transparently(self, tmp_path):
        cache = CellCache(tmp_path)
        cell = echo_cell(config=small_config())
        run_cells([cell], cache=cache)
        assert cache.lookup(cell) is not None
        prune_cache(tmp_path, max_age_days=0.0, now=9_999_999_999.0)
        assert cache.lookup(cell) is None  # miss, not an error
        [payload] = run_cells([cell], cache=cache)  # recomputed cleanly
        assert payload["value"] == "x"


class TestPruneRace:
    def test_prune_during_dispatch_never_corrupts_results(self, tmp_path):
        # Content addressing makes pruning always safe: a lookup racing a
        # delete is a miss and the cell is recomputed, never misread.
        stop = threading.Event()
        errors = []

        def pruner():
            while not stop.is_set():
                try:
                    prune_cache(tmp_path, max_age_days=0.0)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                time.sleep(0.01)

        thread = threading.Thread(target=pruner, daemon=True)
        thread.start()
        cache = CellCache(tmp_path)
        try:
            for round_no in range(4):
                values = [f"{round_no}:{i}" for i in range(3)]
                cells = [echo_cell(value) for value in values]
                for _ in range(2):  # compute and store, then look up again
                    payloads = run_cells(cells, cache=cache)
                    assert [p["value"] for p in payloads] == values
        finally:
            stop.set()
            thread.join(timeout=10)
        assert errors == []
        assert cache.stores >= 12
