"""Cache-key invalidation for the content-addressed result cache.

The key recipe (DESIGN.md §5b) hashes the cell parameters together with
every ``CostModel``/``OpCosts`` constant and the package version:
anything that can change cycle accounting must miss; an unchanged rerun
must hit without dispatching any work.
"""

import dataclasses
import json
import os
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

        # Explicit pool: ``auto`` would keep a 3-cell grid serial and
        # this test counts pool submissions.
        first = _CountingExecutor()
        cold = run_cells(cells, jobs=2, cache=cache, executor_factory=first,
                         backend="pool")
        assert first.submissions == 3
        assert cache.stores == 3

        second = _CountingExecutor()
        warm = run_cells(cells, jobs=2, cache=cache, executor_factory=second,
                         backend="pool")
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


def seed_cache_dir(tmp_path, ages_days):
    """Fabricate result entries and one boot snapshot with set mtimes.

    ``ages_days`` maps filename stem -> age in days; names starting
    with ``snap`` become ``snapshots/*.snap`` files.  Every file is
    100 bytes so byte budgets are easy to reason about.  Returns
    ``now`` (the reference timestamp the ages are relative to).
    """
    now = 1_700_000_000.0
    (tmp_path / "snapshots").mkdir(exist_ok=True)
    for stem, age in ages_days.items():
        if stem.startswith("snap"):
            path = tmp_path / "snapshots" / f"{stem}.snap"
        else:
            path = tmp_path / f"{stem}.json"
        path.write_bytes(b"x" * 100)
        stamp = now - age * 86400.0
        os.utime(path, (stamp, stamp))
    return now


class TestCacheMaintenance:
    def test_contents_inventories_results_and_snapshots(self, tmp_path):
        seed_cache_dir(tmp_path, {"aa": 1, "bb": 2, "snap1": 3})
        inventory = cache_contents(tmp_path)
        kinds = sorted(e["kind"] for e in inventory["entries"])
        assert kinds == ["result", "result", "snapshot"]
        assert inventory["total_bytes"] == 300
        assert inventory["directory"] == str(tmp_path)

    def test_contents_of_missing_directory_is_empty(self, tmp_path):
        inventory = cache_contents(tmp_path / "never-created")
        assert inventory["entries"] == []
        assert inventory["total_bytes"] == 0

    def test_prune_by_age_removes_only_stale_entries(self, tmp_path):
        now = seed_cache_dir(tmp_path, {"young": 1, "old": 30, "snapold": 40})
        removed = prune_cache(tmp_path, max_age_days=7, now=now)
        assert sorted(os.path.basename(p) for p in removed) == [
            "old.json", "snapold.snap"]
        survivors = [e["path"] for e in cache_contents(tmp_path)["entries"]]
        assert survivors == [str(tmp_path / "young.json")]

    def test_prune_by_bytes_evicts_oldest_first(self, tmp_path):
        now = seed_cache_dir(tmp_path, {"newest": 1, "middle": 5, "oldest": 9})
        removed = prune_cache(tmp_path, max_bytes=250, now=now)
        assert [os.path.basename(p) for p in removed] == ["oldest.json"]
        removed = prune_cache(tmp_path, max_bytes=100, now=now)
        assert [os.path.basename(p) for p in removed] == ["middle.json"]

    def test_prune_without_limits_removes_nothing(self, tmp_path):
        now = seed_cache_dir(tmp_path, {"aa": 1, "snap1": 400})
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
