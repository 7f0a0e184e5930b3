"""Tests for platform configuration and cost-model plumbing."""

import pytest

from repro.config import (
    CostModel,
    PAGE_BYTES,
    PAGE_WORDS,
    PlatformConfig,
    SECTION_BYTES,
    WORD_BYTES,
    juno_r1,
)


class TestConstants:
    def test_word_page_relation(self):
        assert PAGE_WORDS * WORD_BYTES == PAGE_BYTES
        assert SECTION_BYTES % PAGE_BYTES == 0

    def test_bitmap_granularity_matches_paper(self):
        """Paper 5.3: one bit per word, one word is 8 bytes."""
        assert WORD_BYTES == 8


class TestPlatformConfig:
    def test_secure_region_sits_at_top_of_dram(self):
        config = PlatformConfig()
        assert config.secure_base + config.secure_bytes == config.dram_limit
        assert config.secure_base > config.dram_base

    def test_cycles_to_us_at_rated_frequency(self):
        config = PlatformConfig(cpu_freq_hz=1e9)
        assert config.cycles_to_us(1000) == pytest.approx(1.0)

    def test_costs_are_per_instance(self):
        """Mutating one config's costs must not leak into another."""
        first = PlatformConfig()
        second = PlatformConfig()
        first.costs.hvc_entry = 999999
        assert second.costs.hvc_entry != 999999


class TestPresets:
    def test_juno_r1_matches_paper_performance_setup(self):
        config = juno_r1()
        assert config.dram_bytes == 2 * 1024 * 1024 * 1024  # 2 GB DRAM
        assert config.cpu_freq_hz == pytest.approx(1.15e9)  # A57 big core

    def test_presets_are_independent_instances(self):
        assert juno_r1() is not juno_r1()


class TestCostModel:
    def test_memory_hierarchy_ordering(self):
        costs = CostModel()
        assert costs.l1_hit < costs.l2_hit < costs.dram_row_hit
        assert costs.dram_row_hit < costs.dram_row_miss

    def test_transition_cost_ordering(self):
        """Hypersec's lean hypercalls must undercut KVM world switches —
        the paper's efficiency argument in one inequality."""
        costs = CostModel()
        hvc_round_trip = costs.hvc_entry + costs.hvc_exit
        world_switch = costs.vm_exit + costs.vm_enter
        assert hvc_round_trip < world_switch / 10

    def test_syscall_cheaper_than_hypercall(self):
        costs = CostModel()
        assert costs.svc_entry + costs.svc_exit < costs.hvc_entry + costs.hvc_exit
