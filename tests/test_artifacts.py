"""The CLI's audit and fuzz output against the lines and goldens CI
checks, so a changed verdict fails tier 1 too.

The goldens under ``benchmarks/e2e/expected/`` are read, never written.
``tests/test_analysis_report.py`` diffs the report the same way.
"""

import pathlib
import re

from repro.cli import main

EXPECTED = pathlib.Path(__file__).parent.parent / "benchmarks" / "e2e" / "expected"

#: The fuzz summary line that carries wall time; CI drops it too.
_TIMING = re.compile(r"^[0-9]+ example\(s\), .* in [0-9.]+s$")


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_live_audit_prints_the_clean_line(capsys):
    assert main(["audit"]) == 0
    assert ("audit clean: 92 tables, 43056 leaves, 49 bitmap words"
            in _lines(capsys))


def test_snapshot_audit_prints_the_clean_line(tmp_path, capsys):
    path = tmp_path / "hypernel.snap"
    assert main(["snapshot", "save", str(path)]) == 0
    capsys.readouterr()
    assert main(["audit", "--snapshot", str(path)]) == 0
    assert ("audit clean: 86 tables, 43008 leaves, 0 bitmap words"
            in _lines(capsys))


def test_fuzz_seed0_matches_golden(capsys):
    assert main(["fuzz", "--seed", "0", "--max-examples", "10"]) == 0
    lines = [line for line in _lines(capsys) if not _TIMING.match(line)]
    assert lines == (EXPECTED / "fuzz-seed0.txt").read_text().splitlines()
