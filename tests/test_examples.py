"""Smoke tests: every shipped example runs to a successful exit.

The examples are the library's public face; they must not rot.  Each is
run as a subprocess exactly as a user would run it (with small
workload arguments where supported, to keep the suite fast).
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

#: example script -> extra CLI arguments for a fast run
EXAMPLES = {
    "quickstart.py": [],
    "rootkit_detection.py": [],
    "atra_attack.py": [],
    "bus_observability.py": [],
}


@pytest.mark.parametrize("script,args", sorted(EXAMPLES.items()))
def test_example_runs_clean(script, args):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def test_every_example_is_listed():
    """A new example script must be added to the smoke-test table."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLES)
