"""Worker-failure handling: a cell that raises fails loudly, naming the
cell, on its first attempt; only a crashed worker's cell runs again.

Fault injection uses the ``selftest`` cell kind (``tests/helpers.py``),
whose ``fail_until_marker`` mode fails on the first attempt (dropping a
marker file) and would succeed on a second one — so a test sees
whether a second attempt ran, across processes too.  Its
``kill_until_marker`` mode SIGKILLs a pool worker mid-cell instead.
"""

import os

import pytest

from repro.tools import runner
from repro.tools.runner import Cell, RunnerError, run_cells

pytestmark = pytest.mark.usefixtures("selftest_kind")


def fail_once_cell(tmp_path, name="flaky"):
    return Cell(
        kind="selftest",
        environment=name,
        workload="fault-injection",
        spec={"mode": "fail_until_marker", "marker": str(tmp_path / f"{name}.marker")},
    )


def echo_cell(name, value):
    return Cell(
        kind="selftest",
        environment=name,
        workload="echo",
        spec={"mode": "echo", "value": value},
    )


def live_children():
    """PIDs of this process's direct children (Linux /proc), or None.

    Unrelated long-lived children (multiprocessing's resource tracker,
    pytest plumbing) show up too — callers compare before/after sets
    rather than expecting emptiness.
    """
    children = set()
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as handle:
                children.update(int(pid) for pid in handle.read().split())
    except OSError:
        return None
    return children


def always_fail_cell(name="doomed"):
    return Cell(
        kind="selftest",
        environment=name,
        workload="fault-injection",
        spec={"mode": "fail"},
    )


class TestSerialFailures:
    def test_first_attempt_failure_is_not_retried(self, tmp_path):
        cell = fail_once_cell(tmp_path)
        with pytest.raises(RunnerError,
                           match=r"selftest:flaky:fault-injection failed"):
            run_cells([cell], jobs=1)
        assert (tmp_path / "flaky.marker").exists()

    def test_persistent_failure_raises_runner_error_naming_cell(self):
        cell = always_fail_cell()
        with pytest.raises(RunnerError, match=r"selftest:doomed:fault-injection"):
            run_cells([cell], jobs=1)

    def test_runner_error_carries_the_cell(self):
        cell = always_fail_cell()
        with pytest.raises(RunnerError) as excinfo:
            run_cells([cell], jobs=1)
        assert excinfo.value.cell is cell
        assert excinfo.value.__cause__ is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(RunnerError, match="unknown cell kind"):
            run_cells([Cell(kind="nope", environment="x", workload="y")])


class TestPoolFailures:
    def test_first_attempt_worker_failure_is_not_retried(self, tmp_path):
        cells = [fail_once_cell(tmp_path, "a"), fail_once_cell(tmp_path, "b")]
        with pytest.raises(
                RunnerError,
                match=r"selftest:a:fault-injection failed") as excinfo:
            run_cells(cells, jobs=2)
        assert excinfo.value.cell is cells[0]

    def test_persistent_worker_failure_surfaces_instead_of_hanging(self):
        cells = [always_fail_cell("one"), always_fail_cell("two")]
        with pytest.raises(RunnerError, match=r"selftest:one:fault-injection"):
            run_cells(cells, jobs=2)

    def test_timeout_raises_runner_error_naming_cell(self, monkeypatch):
        monkeypatch.setattr(runner, "DEFAULT_TIMEOUT", 0.2)
        cells = [
            Cell(kind="selftest", environment=f"sleepy{i}", workload="nap",
                 spec={"mode": "sleep", "seconds": 2.0})
            for i in range(2)
        ]
        with pytest.raises(RunnerError, match=r"selftest:sleepy0:nap.*timed out"):
            run_cells(cells, jobs=2)

    def test_first_attempt_failure_among_healthy_cells_fails(self,
                                                              tmp_path):
        # The failing cell is not run again in-process, even though a
        # second attempt would succeed.
        cells = [echo_cell("x", 1), fail_once_cell(tmp_path, "b"),
                 echo_cell("y", 2)]
        with pytest.raises(RunnerError,
                           match=r"selftest:b:fault-injection failed"):
            run_cells(cells, jobs=3)
        assert (tmp_path / "b.marker").exists()

    def test_persistent_failure_names_the_lowest_indexed_cell(self):
        # Cell order, not name order or completion order, picks the
        # cell the error names.
        cells = [echo_cell("bystander", 0), always_fail_cell("zeta"),
                 always_fail_cell("alpha")]
        with pytest.raises(RunnerError, match=r"selftest:zeta:fault-injection"):
            run_cells(cells, jobs=3)

    def test_timeout_after_a_finished_cell_names_the_slow_cell(
            self, monkeypatch):
        monkeypatch.setattr(runner, "DEFAULT_TIMEOUT", 0.5)
        cells = [
            echo_cell("quick", 1),
            Cell(kind="selftest", environment="sleepy", workload="nap",
                 spec={"mode": "sleep", "seconds": 2.0}),
        ]
        with pytest.raises(RunnerError,
                           match=r"selftest:sleepy:nap.*timed out") as excinfo:
            run_cells(cells, jobs=2)
        assert excinfo.value.cell is cells[1]

    def test_worker_killed_mid_cell_is_retried_in_process(self, tmp_path):
        # One victim only: its marker exists before the pool breaks, so
        # the in-process retry cannot kill the test process.  The echo
        # cell may also see BrokenProcessPool and is retried too.
        marker = tmp_path / "victim.marker"
        cells = [
            Cell(kind="selftest", environment="victim", workload="kill",
                 spec={"mode": "kill_until_marker", "marker": str(marker)}),
            echo_cell("bystander", 7),
        ]
        victim, bystander = run_cells(cells, jobs=2)
        assert marker.exists()
        assert victim["value"] == "ok after kill"
        assert victim["pid"] == os.getpid()
        assert bystander["value"] == 7

    def test_payloads_come_back_in_cell_order(self):
        cells = [echo_cell(f"c{i}", i * 11) for i in range(7)]
        payloads = run_cells(cells, jobs=3)
        assert [p["value"] for p in payloads] == [i * 11 for i in range(7)]

    def test_no_leaked_children_after_run(self):
        before = live_children()
        if before is None:
            pytest.skip("needs /proc children accounting")
        run_cells([echo_cell(f"c{i}", i) for i in range(4)], jobs=2)
        # Every pool worker was stopped and reaped.
        assert live_children() <= before

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([], jobs=0)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs a CPU affinity mask")
    def test_default_jobs_on_a_one_cpu_mask_runs_serially(self,
                                                          monkeypatch):
        # What ``taskset -c 0`` does to a shell; the mask is per thread.
        from repro.tools.runner import available_cpus

        def exploding_factory(jobs):  # pragma: no cover - must not run
            raise AssertionError("a 1-CPU mask must stay serial")

        monkeypatch.setattr(runner, "_default_executor_factory",
                            exploding_factory)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            assert available_cpus() == 1
            payloads = run_cells([echo_cell("a", 1), echo_cell("b", 2)])
        finally:
            os.sched_setaffinity(0, mask)
        assert [p["value"] for p in payloads] == [1, 2]
