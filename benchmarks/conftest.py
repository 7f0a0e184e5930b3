"""Shared benchmark configuration.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — application-workload scale factor (default
  0.25; 1.0 approximates the paper's full runs but takes minutes).
* ``REPRO_BENCH_DRAM_MB`` — simulated DRAM size (default 192 MB; the
  paper's performance platform had 2 GB, which only slows boot here).
* ``REPRO_BENCH_JOBS`` — worker processes for independent experiment
  cells (default 1 = serial; above 1 the table/figure benchmarks fan
  their per-system cells out over a process pool in
  ``repro.tools.runner``).

Each benchmark regenerates one table/figure, writes the formatted
result to ``benchmarks/results/`` and attaches the headline numbers to
pytest-benchmark's ``extra_info``.
"""

import os
import pathlib

import pytest

from repro.config import PlatformConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def bench_jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_platform_config() -> PlatformConfig:
    dram_mb = int(os.environ.get("REPRO_BENCH_DRAM_MB", "192"))
    return PlatformConfig(
        dram_bytes=dram_mb * 1024 * 1024,
        secure_bytes=max(16, dram_mb // 8) * 1024 * 1024,
    )


def save_result(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@pytest.fixture
def platform_factory():
    return bench_platform_config
