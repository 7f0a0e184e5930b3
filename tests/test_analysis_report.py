"""Tests for the markdown evaluation-report generator."""

import pathlib

import pytest

from repro.analysis.report import generate_report
from tests.conftest import small_platform_config

GOLDEN = (pathlib.Path(__file__).parent.parent / "benchmarks" / "e2e"
          / "expected" / "report.txt")


@pytest.fixture(scope="module")
def report():
    """The report ``python -m repro report --no-cache`` prints, computed
    once for every test here."""
    return generate_report()


class TestReport:
    def test_matches_golden(self, report):
        assert report + "\n" == GOLDEN.read_text(encoding="utf-8")

    def test_contains_all_sections(self, report):
        for heading in ("## Table 1", "## Figure 6", "## Table 2",
                        "## Attack matrix"):
            assert heading in report

    def test_table1_rows_complete(self, report):
        from repro.workloads.lmbench import LMBENCH_OPS
        for op in LMBENCH_OPS:
            assert f"| {op} |" in report

    def test_paper_columns_present(self, report):
        assert "paper kvm" in report
        assert "271.68" in report  # paper's native fork+exit

    def test_attack_verdicts(self, report):
        assert "silent success" in report   # native column
        assert "blocked" in report          # hypernel column

    def test_is_valid_markdown_tables(self, report):
        """Every table row has a consistent column count."""
        lines = report.splitlines()
        for index, line in enumerate(lines):
            if line.startswith("|---"):
                columns = line.count("|")
                block = index + 1
                while block < len(lines) and lines[block].startswith("|"):
                    assert lines[block].count("|") == columns, lines[block]
                    block += 1

    def test_attacks_can_be_skipped(self):
        text = generate_report(
            scale=0.05,
            platform_config=small_platform_config(),
            include_attacks=False,
        )
        assert "## Attack matrix" not in text
