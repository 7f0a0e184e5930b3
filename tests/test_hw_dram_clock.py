"""Unit tests for the clock and the DRAM row-buffer model."""

import pytest

from repro.config import CostModel
from repro.hw.clock import Clock
from repro.hw.dram import DramModel


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_advance_accumulates(self):
        clock = Clock()
        clock.advance(10)
        clock.advance(5)
        assert clock.now == 15

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_elapsed_since(self):
        clock = Clock()
        start = clock.now
        clock.advance(100)
        assert clock.elapsed_since(start) == 100

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            Clock(freq_hz=0)


class TestDram:
    @pytest.fixture
    def dram(self):
        return DramModel(CostModel(), banks=4, row_bytes=4096)

    def test_first_access_is_row_miss(self, dram):
        assert dram.access_cycles(0x1000) == CostModel().dram_row_miss

    def test_repeat_access_is_row_hit(self, dram):
        dram.access_cycles(0x1000)
        assert dram.access_cycles(0x1008) == CostModel().dram_row_hit

    def test_conflicting_row_same_bank_misses(self, dram):
        dram.access_cycles(0x0)          # row 0, bank 0
        # 4 banks * 4096-byte rows: row 4 maps back to bank 0.
        assert dram.access_cycles(4 * 4096) == CostModel().dram_row_miss

    def test_different_banks_keep_rows_open(self, dram):
        dram.access_cycles(0 * 4096)     # bank 0
        dram.access_cycles(1 * 4096)     # bank 1
        assert dram.access_cycles(0 * 4096 + 8) == CostModel().dram_row_hit
        assert dram.access_cycles(1 * 4096 + 8) == CostModel().dram_row_hit

    def test_burst_streams_after_first_beat(self, dram):
        costs = CostModel()
        cycles = dram.burst_cycles(0x2000, 8)
        assert cycles == costs.dram_row_miss + 7

    def test_burst_zero_words(self, dram):
        assert dram.burst_cycles(0x2000, 0) == 0

    def test_stats_counting(self, dram):
        dram.access_cycles(0x1000)
        dram.access_cycles(0x1008)
        assert dram.stats.get("row_misses") == 1
        assert dram.stats.get("row_hits") == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            DramModel(CostModel(), banks=0)
