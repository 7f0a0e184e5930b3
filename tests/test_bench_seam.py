"""The end-to-end benchmark's tracer still fits the package.

``benchmarks/e2e/traced.py`` wraps named functions and methods across
``repro`` to time each layer; a renamed or deleted name makes every
traced benchmark sample fail.  Installing the tracer against the real
package catches that here.  It runs in a subprocess because ``install``
patches classes globally.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent

PROBE = "import traced; traced.install(traced.Tracer(0.0))"


def test_tracer_installs_against_the_package():
    paths = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = {paths!r}; {PROBE}"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
