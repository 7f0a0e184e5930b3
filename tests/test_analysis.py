"""Unit tests for the analysis helpers and paper constants."""

import pytest

from repro.analysis import paper
from repro.analysis.compare import (
    arithmetic_mean,
    format_table,
    overhead_percent,
)
from repro.analysis.tables import Table1Result
from repro.analysis.monitoring import Table2Result
from repro.analysis.figures import Figure6Result
from repro.workloads.lmbench import LMBENCH_OPS


class TestMath:
    def test_overhead_percent(self):
        assert overhead_percent(1.10, 1.0) == pytest.approx(10.0)
        assert overhead_percent(1.0, 1.0) == pytest.approx(0.0)

    def test_overhead_requires_positive_baseline(self):
        with pytest.raises(ValueError):
            overhead_percent(1.0, 0)

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            arithmetic_mean([])

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)


class TestPaperConstants:
    def test_table1_covers_all_ops(self):
        assert set(paper.TABLE1) == set(LMBENCH_OPS)

    def test_table1_kvm_generally_slower(self):
        slower = sum(
            1 for row in paper.TABLE1.values()
            if row["kvm-guest"] > row["native"]
        )
        assert slower >= 7  # stat is the one noisy exception

    def test_table2_ratios_are_single_digit_percent(self):
        for app, row in paper.TABLE2.items():
            ratio = row["word"] / row["page"] * 100
            assert 3.0 < ratio < 10.0, app

    def test_headline_averages(self):
        assert paper.LMBENCH_AVG_OVERHEAD["hypernel"] < paper.LMBENCH_AVG_OVERHEAD["kvm-guest"]
        assert paper.APP_AVG_OVERHEAD["hypernel"] < paper.APP_AVG_OVERHEAD["kvm-guest"]


class TestResultContainers:
    def test_table1_average_overhead(self):
        result = Table1Result(rows={
            "op-a": {"native": 1.0, "kvm-guest": 1.2, "hypernel": 1.1},
            "op-b": {"native": 2.0, "kvm-guest": 2.2, "hypernel": 2.0},
        })
        assert result.average_overhead("kvm-guest") == pytest.approx(15.0)
        assert result.average_overhead("hypernel") == pytest.approx(5.0)

    def test_table2_ratios(self):
        result = Table2Result(counts={
            "app": {"page": 200, "word": 10},
            "other": {"page": 100, "word": 20},
        })
        assert result.ratio_percent("app") == pytest.approx(5.0)
        assert result.mean_ratio_percent() == pytest.approx(10.0)

    def test_table2_zero_page_count(self):
        result = Table2Result(counts={"app": {"page": 0, "word": 0}})
        assert result.ratio_percent("app") == 0.0
        assert result.mean_ratio_percent() == 0.0

    def test_figure6_average(self):
        result = Figure6Result(normalized={
            "a": {"native": 1.0, "kvm-guest": 1.2, "hypernel": 1.1},
            "b": {"native": 1.0, "kvm-guest": 1.0, "hypernel": 1.0},
        })
        assert result.average_overhead("kvm-guest") == pytest.approx(10.0)
        assert result.average_overhead("hypernel") == pytest.approx(5.0)

    def test_figure6_chart(self):
        result = Figure6Result(normalized={
            "a": {"native": 1.0, "kvm-guest": 1.5, "hypernel": 1.1},
        })
        chart = result.ascii_chart(width=20)
        assert "kvm-guest" in chart
