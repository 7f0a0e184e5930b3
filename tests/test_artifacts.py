"""The CLI's audit and fuzz output against their exact lines and
goldens, so a changed verdict fails tier 1.

The goldens under ``benchmarks/e2e/expected/`` are read, never written.
``tests/test_analysis_report.py`` diffs the report the same way.
"""

import contextlib
import io
import pathlib
import re

import pytest

from repro.cli import main

EXPECTED = pathlib.Path(__file__).parent.parent / "benchmarks" / "e2e" / "expected"

#: The fuzz summary line that carries wall time; the golden omits it.
_TIMING = re.compile(r"^[0-9]+ example\(s\), .* in [0-9.]+s$")


#: The summary both channels print for the default audit machine.
CLEAN = "audit clean: 92 tables, 43056 leaves, 49 bitmap words"
GATE = ("differential gate clean: live and snapshot channels agree "
        "(0 finding(s) each)")


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


@pytest.fixture(scope="module")
def audit_lines():
    """Stdout of one default-flag ``audit`` run, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["audit"]) == 0
    return out.getvalue().splitlines()


def test_live_audit_prints_the_clean_line(audit_lines):
    live = audit_lines.index("live audit of the running machine:")
    assert audit_lines[live + 1] == CLEAN
    assert audit_lines.count(CLEAN) == 2


def test_snapshot_audit_prints_the_clean_line(audit_lines):
    offline = audit_lines.index("offline check of the captured evidence:")
    assert audit_lines[offline + 1:] == [CLEAN, GATE]


def test_fuzz_seed0_matches_golden(capsys):
    assert main(["fuzz", "--seed", "0", "--max-examples", "10"]) == 0
    lines = [line for line in _lines(capsys) if not _TIMING.match(line)]
    assert lines == (EXPECTED / "fuzz-seed0.txt").read_text().splitlines()
