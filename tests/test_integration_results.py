"""Integration tests asserting the paper's result *shapes* on small runs.

These are the claims DESIGN.md section 5 commits to: orderings and
rough factors, not absolute numbers.  Full-size regenerations are
``python -m repro table1`` / ``figure6`` / ``table2``.
"""

import pytest

from repro.analysis.figures import run_figure6
from repro.analysis.monitoring import run_table2
from repro.analysis.tables import run_table1
from tests.conftest import small_platform_config


@pytest.fixture(scope="module")
def table1():
    return run_table1(
        platform_config=small_platform_config(), warmup=3, iterations=6
    )


@pytest.fixture(scope="module")
def figure6():
    return run_figure6(scale=0.08, platform_config=small_platform_config())


@pytest.fixture(scope="module")
def table2():
    return run_table2(scale=0.08, platform_config=small_platform_config())


class TestTable1Shape:
    def test_every_cell_positive(self, table1):
        for op, row in table1.rows.items():
            for system, value in row.items():
                assert value > 0, (op, system)

    @pytest.mark.parametrize("op", [
        "fork+exit", "fork+execv", "pipe lat", "socket lat",
    ])
    def test_native_fastest_kvm_slowest(self, table1, op):
        row = table1.rows[op]
        if op in ("fork+exit", "fork+execv"):
            # The page-table-heavy fork family separates all three.
            assert row["native"] < row["hypernel"] < row["kvm-guest"]
        else:
            assert row["native"] <= row["hypernel"] <= row["kvm-guest"]

    def test_hypernel_cheaper_than_kvm_on_average(self, table1):
        assert (table1.average_overhead("hypernel")
                < table1.average_overhead("kvm-guest"))

    def test_hypernel_average_overhead_band(self, table1):
        """Paper: +8.8%.  Accept the right ballpark on tiny runs."""
        overhead = table1.average_overhead("hypernel")
        assert 2.0 < overhead < 20.0

    def test_kvm_average_overhead_band(self, table1):
        """Paper: +15.5%."""
        overhead = table1.average_overhead("kvm-guest")
        assert 5.0 < overhead < 30.0

    def test_pure_syscall_paths_nearly_free_under_hypernel(self, table1):
        """stat/signal involve no page-table updates: Hypernel ~ native."""
        for op in ("syscall stat", "signal install", "signal ovh"):
            row = table1.rows[op]
            assert row["hypernel"] <= row["native"] * 1.05

    def test_formatting_includes_paper_columns(self, table1):
        text = table1.format()
        assert "paper native" in text
        assert "fork+exit" in text


class TestFigure6Shape:
    def test_normalization_baseline(self, figure6):
        for row in figure6.normalized.values():
            assert row["native"] == pytest.approx(1.0)

    def test_hypernel_beats_kvm_on_every_app(self, figure6):
        for app, row in figure6.normalized.items():
            assert row["hypernel"] <= row["kvm-guest"], app

    def test_compute_bound_apps_barely_affected(self, figure6):
        for app in ("whetstone", "dhrystone"):
            assert figure6.normalized[app]["hypernel"] < 1.05
            assert figure6.normalized[app]["kvm-guest"] < 1.10

    def test_kernel_heavy_apps_show_kvm_pain(self, figure6):
        assert figure6.normalized["untar"]["kvm-guest"] > 1.10

    def test_average_bands(self, figure6):
        """Paper: KVM +13.5%, Hypernel +3.1%."""
        assert 5.0 < figure6.average_overhead("kvm-guest") < 30.0
        assert 0.0 < figure6.average_overhead("hypernel") < 8.0

    def test_chart_renders(self, figure6):
        chart = figure6.ascii_chart()
        assert "whetstone" in chart
        assert "#" in chart


class TestTable2Shape:
    def test_word_counts_are_a_small_fraction(self, table2):
        """Paper: 4.4%-9.2% per app, 6.2% overall."""
        for app, row in table2.counts.items():
            assert 0 < row["word"] < row["page"], app
            assert table2.ratio_percent(app) < 25.0, app
        assert 1.0 < table2.mean_ratio_percent() < 15.0

    def test_untar_dominates_event_volume(self, table2):
        untar = table2.counts["untar"]["page"]
        assert untar == max(row["page"] for row in table2.counts.values())

    def test_formatting(self, table2):
        text = table2.format()
        assert "word-granularity" in text
        assert "overall word/page ratio" in text


class TestScaleInvariance:
    def test_ratio_stable_across_scales(self):
        """The word/page ratio is a property of the write mix, not of
        the workload size (so scaled-down runs are faithful)."""
        small = run_table2(
            scale=0.05,
            platform_config=small_platform_config(),
            apps=["untar"],
        )
        large = run_table2(
            scale=0.15,
            platform_config=small_platform_config(),
            apps=["untar"],
        )
        ratio_small = small.ratio_percent("untar")
        ratio_large = large.ratio_percent("untar")
        assert ratio_small == pytest.approx(ratio_large, rel=0.5)

    def test_counts_grow_with_scale(self):
        small = run_table2(
            scale=0.05,
            platform_config=small_platform_config(),
            apps=["apache"],
        )
        large = run_table2(
            scale=0.2,
            platform_config=small_platform_config(),
            apps=["apache"],
        )
        assert large.counts["apache"]["page"] > 2 * small.counts["apache"]["page"]
