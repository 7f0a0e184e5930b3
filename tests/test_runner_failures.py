"""Worker-failure handling: retry once, then fail loudly naming the cell.

Fault injection uses the runner's test-only ``selftest`` cell kind,
whose ``fail_until_marker`` mode fails on the first attempt (dropping a
marker file) and succeeds on the retry — observable across processes.
Backend names are checked up front: a typo or a retired backend fails
before any cell runs, naming every valid backend.
"""

import sys

import pytest

from repro import cli
from repro.tools.runner import Cell, RunnerError, run_cells, validate_backend


def fail_once_cell(tmp_path, name="flaky"):
    return Cell(
        kind="selftest",
        environment=name,
        workload="fault-injection",
        spec={"mode": "fail_until_marker", "marker": str(tmp_path / f"{name}.marker")},
        cacheable=False,
    )


def always_fail_cell(name="doomed"):
    return Cell(
        kind="selftest",
        environment=name,
        workload="fault-injection",
        spec={"mode": "fail"},
        cacheable=False,
    )


class TestSerialFailures:
    def test_transient_failure_is_retried_once(self, tmp_path):
        cell = fail_once_cell(tmp_path)
        [payload] = run_cells([cell], jobs=1)
        assert payload["value"] == "ok after retry"
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
    def test_transient_worker_failure_is_retried_once(self, tmp_path):
        cells = [fail_once_cell(tmp_path, "a"), fail_once_cell(tmp_path, "b")]
        payloads = run_cells(cells, jobs=2)
        assert [p["value"] for p in payloads] == ["ok after retry"] * 2

    def test_persistent_worker_failure_surfaces_instead_of_hanging(self):
        cells = [always_fail_cell("one"), always_fail_cell("two")]
        with pytest.raises(RunnerError, match=r"selftest:one:fault-injection"):
            run_cells(cells, jobs=2)

    def test_timeout_raises_runner_error_naming_cell(self):
        cells = [
            Cell(kind="selftest", environment=f"sleepy{i}", workload="nap",
                 spec={"mode": "sleep", "seconds": 2.0}, cacheable=False)
            for i in range(2)
        ]
        # Explicit pool: ``auto`` would stay serial for a 2-cell grid.
        with pytest.raises(RunnerError, match=r"selftest:sleepy0:nap.*timed out"):
            run_cells(cells, jobs=2, timeout=0.2, backend="pool")

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([], jobs=0)


class TestBackendValidation:
    def test_validate_normalizes_case_and_whitespace(self):
        assert validate_backend(" Pool\n") == "pool"
        assert validate_backend("FORKSERVER") == "forkserver"

    def test_unknown_value_names_source_and_valid_backends(self):
        with pytest.raises(ValueError) as excinfo:
            validate_backend("warpdrive", source="REPRO_BENCH_BACKEND")
        message = str(excinfo.value)
        assert "REPRO_BENCH_BACKEND" in message
        assert "warpdrive" in message
        for name in ("auto", "forkserver", "pool", "serial"):
            assert name in message

    def test_run_cells_rejects_bad_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "warpdrive")
        with pytest.raises(ValueError,
                           match="REPRO_BENCH_BACKEND.*warpdrive"):
            run_cells([Cell(kind="selftest", environment="a",
                            workload="echo", spec={"mode": "echo"})],
                      backend="auto")

    def test_simspeed_script_rejects_bad_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "warpdrive")
        sys.path.insert(0, "scripts")
        try:
            import check_simspeed
        finally:
            sys.path.pop(0)
        with pytest.raises(ValueError, match="REPRO_BENCH_BACKEND"):
            check_simspeed.main(["--iters-scale", "0.01"])

    @pytest.mark.parametrize("source", ["backend", "REPRO_BENCH_BACKEND"])
    def test_retired_fabric_backend_fails_fast(self, source, monkeypatch):
        # A shell still exporting the retired value must get an error,
        # not a silent fallback to another backend.
        monkeypatch.delenv("REPRO_BENCH_BACKEND", raising=False)
        with pytest.raises(ValueError) as excinfo:
            if source == "backend":
                validate_backend("fabric")
            else:
                monkeypatch.setenv("REPRO_BENCH_BACKEND", "fabric")
                run_cells([], backend="serial")
        message = str(excinfo.value)
        assert source in message and "'fabric'" in message
        assert message.endswith(
            "valid backends are auto, forkserver, pool, serial")

    def test_cli_rejects_retired_fabric_backend(self, monkeypatch, capsys):
        ran = []
        _, installers = cli._COMMANDS["table1"]
        monkeypatch.setitem(cli._COMMANDS, "table1",
                            (lambda args: ran.append(args) or 0, installers))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table1", "--backend", "fabric"])
        assert excinfo.value.code == 2 and ran == []
        assert "invalid choice: 'fabric'" in capsys.readouterr().err
