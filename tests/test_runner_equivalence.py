"""Parallel/serial equivalence of the experiment runner.

The contract (ISSUE 2, DESIGN.md §5b): fanning cells out over worker
processes — or answering them from the content-addressed cache — must
produce *byte-identical* formatted results to the serial path.
"""

import pytest

from repro.analysis.figures import run_figure6
from repro.analysis.monitoring import run_table2
from repro.analysis.tables import run_table1
from repro.config import PlatformConfig
from repro.tools import runner
from repro.tools.runner import CellCache

#: Reduced op set: keeps the three-systems sweep fast while still
#: covering a syscall path, a signal path and a page-table-heavy path.
REDUCED_OPS = ["syscall stat", "signal install", "mmap"]


#: One value serves every cell: nothing mutates a PlatformConfig.
SMALL_PLATFORM = PlatformConfig(
    dram_bytes=64 * 1024 * 1024, secure_bytes=8 * 1024 * 1024
)


def _table1(**kwargs):
    return run_table1(
        platform_config=SMALL_PLATFORM,
        warmup=2,
        iterations=4,
        ops=REDUCED_OPS,
        **kwargs,
    )


class TestParallelEquivalence:
    def test_table1_jobs4_matches_jobs1_byte_identically(self):
        serial = _table1(jobs=1)
        parallel = _table1(jobs=4)
        assert parallel.rows == serial.rows
        assert parallel.format() == serial.format()

    def test_figure6_parallel_matches_serial(self):
        serial = run_figure6(
            scale=0.02, platform_config=SMALL_PLATFORM, jobs=1,
        )
        parallel = run_figure6(
            scale=0.02, platform_config=SMALL_PLATFORM, jobs=3,
        )
        assert parallel.raw_us == serial.raw_us
        assert parallel.normalized == serial.normalized
        assert parallel.format() == serial.format()

    def test_table2_parallel_matches_serial(self):
        serial = run_table2(
            scale=0.02, platform_config=SMALL_PLATFORM, jobs=1,
        )
        parallel = run_table2(
            scale=0.02, platform_config=SMALL_PLATFORM, jobs=2,
        )
        assert parallel.counts == serial.counts
        assert parallel.format() == serial.format()

    # Fewer workers than cells: one worker process runs two systems in
    # turn, so no state may leak from one cell into the next.
    def test_table1_jobs2_reused_worker_matches_serial(self):
        serial = _table1(jobs=1)
        parallel = _table1(jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.format() == serial.format()

    def test_figure6_jobs2_reused_worker_matches_serial(self):
        serial = run_figure6(
            scale=0.02, platform_config=SMALL_PLATFORM, jobs=1,
        )
        parallel = run_figure6(
            scale=0.02, platform_config=SMALL_PLATFORM, jobs=2,
        )
        assert parallel.raw_us == serial.raw_us
        assert parallel.format() == serial.format()

    def test_table2_pooled_cache_entries_match_serial(self, tmp_path):
        # Payloads computed on the pool and stored in the cache read
        # back into the same table as an uncached serial run.
        cache = CellCache(tmp_path)
        run_table2(scale=0.02, platform_config=SMALL_PLATFORM,
                   jobs=2, cache=cache)
        assert cache.stores == 2
        warm = run_table2(scale=0.02, platform_config=SMALL_PLATFORM,
                          jobs=1, cache=cache)
        assert cache.hits == 2
        serial = run_table2(scale=0.02, platform_config=SMALL_PLATFORM,
                            jobs=1)
        assert warm.counts == serial.counts
        assert warm.format() == serial.format()


class TestJobsPicksDispatch:
    """``jobs`` alone decides: a pool of ``min(jobs, pending)`` workers
    when ``jobs > 1`` and more than one cell is uncached, else serial."""

    def _cells(self):
        from repro.analysis.tables import table1_cells

        return table1_cells(
            platform_config=SMALL_PLATFORM,
            warmup=2,
            iterations=4,
            ops=REDUCED_OPS,
        )

    def test_paper_grid_at_jobs4_builds_one_pool_of_three(self,
                                                          pool_sizes):
        from repro.tools.runner import run_cells

        cells = self._cells()
        payloads = run_cells(cells, jobs=4)
        assert pool_sizes == [3]
        assert len(payloads) == len(cells)
        assert all(p is not None for p in payloads)

    def test_factory_pool_is_capped_at_jobs(self, pool_sizes,
                                            selftest_kind):
        # More uncached cells than jobs: the factory is asked for
        # ``jobs`` workers, and every cell still comes back in order.
        from repro.tools.runner import Cell, run_cells

        cells = [Cell(kind="selftest", environment=f"c{i}", workload="echo",
                      spec={"mode": "echo", "value": i})
                 for i in range(5)]
        payloads = run_cells(cells, jobs=2)
        assert pool_sizes == [2]
        assert [p["value"] for p in payloads] == list(range(5))

    def test_jobs1_never_builds_a_pool(self, monkeypatch):
        from repro.tools.runner import run_cells

        def exploding_factory(jobs):  # pragma: no cover - must not run
            raise AssertionError("jobs=1 must stay serial")

        monkeypatch.setattr(runner, "_default_executor_factory",
                            exploding_factory)
        cells = self._cells()
        payloads = run_cells(cells, jobs=1)
        assert len(payloads) == len(cells)
        assert all(p is not None for p in payloads)


class TestCacheEquivalence:
    def test_cache_hit_returns_identical_result_contents(self, tmp_path):
        cache = CellCache(tmp_path)
        cold = _table1(jobs=1, cache=cache)
        assert cache.stores == 3 and cache.hits == 0

        warm = _table1(jobs=1, cache=cache)
        assert cache.hits == 3
        assert warm.rows == cold.rows
        assert warm.format() == cold.format()

    def test_warm_cache_parallel_run_dispatches_nothing(self, tmp_path,
                                                        monkeypatch):
        cache = CellCache(tmp_path)
        cold = _table1(jobs=1, cache=cache)

        def exploding_factory(jobs):  # pragma: no cover - must not run
            raise AssertionError("warm cache must not create a pool")

        # jobs=4 with a fully warm cache: the executor factory (and any
        # in-process execution) is never reached.
        from repro.analysis.tables import table1_cells
        from repro.tools.runner import run_cells

        cells = table1_cells(
            platform_config=SMALL_PLATFORM,
            warmup=2,
            iterations=4,
            ops=REDUCED_OPS,
        )
        monkeypatch.setattr(runner, "_default_executor_factory",
                            exploding_factory)
        payloads = run_cells(cells, jobs=4, cache=cache)
        assert [p["rows"] for p in payloads] == [
            {op: cold.rows[op][cell.environment] for op in REDUCED_OPS}
            for cell in cells
        ]
