"""A table served from the result cache imports no simulator code.

``python -m repro table2`` on a warm cache needs the CLI, the config,
the runner, ``repro.obs.metrics`` and Table 2's own formatting module;
the simulator is imported only by the code that runs a cell, when a
cell has to run (DESIGN.md §5b, "Import layering").  These tests run the
CLI in a fresh interpreter and inspect its ``sys.modules`` afterwards.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Packages only a running cell (or a non-table command) may import.
SIMULATOR = ("repro.kernel", "repro.hw", "repro.arch", "repro.core",
             "repro.hypervisor", "repro.security", "repro.attacks")
#: The process-pool machinery, imported only when a pool is built.
POOL = ("concurrent.futures.process", "multiprocessing")

#: ``python -m repro ARGS`` in this interpreter, then a JSON dump of the
#: exit code and ``sys.modules`` to the file named by the first argument.
PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["repro", *sys.argv[2:]]
code = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

TABLE1 = ["table1", "--dram-mb", "64"]
TABLE2 = ["table2", "--dram-mb", "64", "--scale", "0.02"]


def _env(cache_dir: pathlib.Path) -> dict:
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _probe(args, cache_dir, tmp_path):
    """Run the CLI; returns (stdout, exit code, loaded module names)."""
    out = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *args],
        env=_env(cache_dir), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    return proc.stdout, record["code"], record["modules"]


def _assert_lean(modules):
    heavy = [name for name in modules
             if name in POOL or any(name == package
                                    or name.startswith(package + ".")
                                    for package in SIMULATOR)]
    assert heavy == []


def _fill_cache(tmp_path_factory, args, cells):
    """A cache directory holding the cells of ``args``, and the cold
    stdout."""
    cache_dir = tmp_path_factory.mktemp("cache")
    cold = subprocess.run(
        [sys.executable, "-m", "repro", *args], env=_env(cache_dir),
        capture_output=True, text=True, timeout=600,
    )
    assert cold.returncode == 0, cold.stderr
    assert len(list(cache_dir.glob("*.json"))) == cells
    return cache_dir, cold.stdout


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    return _fill_cache(tmp_path_factory, TABLE2, 2)


@pytest.fixture(scope="module")
def warm_table1_cache(tmp_path_factory):
    return _fill_cache(tmp_path_factory, TABLE1, 3)


class TestCacheHitStaysLean:
    def test_warm_table2_imports_no_simulator(self, warm_cache, tmp_path):
        cache_dir, cold_stdout = warm_cache
        stdout, code, modules = _probe(TABLE2, cache_dir, tmp_path)
        assert code == 0
        assert stdout == cold_stdout
        assert "repro.analysis.monitoring" in modules
        _assert_lean(modules)

    def test_warm_table1_imports_no_application_models(
            self, warm_table1_cache, tmp_path):
        # Table 1 formats LMbench rows only; the five application
        # models stay unloaded behind repro.workloads' lazy exports.
        cache_dir, cold_stdout = warm_table1_cache
        stdout, code, modules = _probe(TABLE1, cache_dir, tmp_path)
        assert code == 0
        assert stdout == cold_stdout
        assert "repro.workloads.lmbench" in modules
        assert "repro.workloads.apps" not in modules
        _assert_lean(modules)

    def test_help_imports_no_simulator(self, tmp_path):
        stdout, code, modules = _probe(["--help"], tmp_path, tmp_path)
        assert code == 0
        assert stdout.startswith("usage: python -m repro")
        _assert_lean(modules)
