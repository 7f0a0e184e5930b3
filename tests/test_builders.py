"""Tests for the system builders (the three evaluation configurations)."""

import pytest

from repro.core.hypernel import build_system
from repro.obs import collect_metrics
from tests.conftest import small_platform_config


class TestNativeBuilder:
    def test_shape(self, native_system):
        assert native_system.name == "native"
        assert native_system.hypersec is None
        assert native_system.kvm is None
        assert native_system.mbm is None
        assert native_system.kernel.booted

    def test_vanilla_section_linear_map(self, native_system):
        assert native_system.kernel.linear_map.mode == "section"

    def test_no_el2_traps(self, native_system):
        assert not native_system.cpu.regs.tvm_enabled
        assert not native_system.cpu.regs.stage2_enabled


class TestKvmBuilder:
    def test_shape(self, kvm_system):
        assert kvm_system.kvm is not None
        assert kvm_system.hypersec is None
        assert kvm_system.cpu.regs.stage2_enabled
        assert kvm_system.kernel.env.name == "kvm-guest"

    def test_guest_kernel_is_unmodified(self, kvm_system):
        from repro.kernel.pgtable_mgmt import DirectPgTableWriter
        assert isinstance(kvm_system.kernel.pgwriter, DirectPgTableWriter)
        assert kvm_system.kernel.linear_map.mode == "section"


class TestHypernelBuilder:
    def test_shape_with_mbm(self, monitored_system):
        assert monitored_system.hypersec is not None
        assert monitored_system.mbm is not None
        assert monitored_system.hooks is not None
        assert len(monitored_system.monitors) == 2

    def test_shape_without_mbm(self, hypernel_system):
        assert hypernel_system.mbm is None
        assert hypernel_system.hooks is None
        assert hypernel_system.cpu.regs.tvm_enabled

    def test_patched_kernel(self, hypernel_system):
        from repro.kernel.pgtable_mgmt import HypercallPgTableWriter
        assert isinstance(hypernel_system.kernel.pgwriter, HypercallPgTableWriter)
        assert hypernel_system.kernel.linear_map.mode == "page"

    def test_monitor_lookup(self, monitored_system):
        assert monitored_system.monitor_by_name("cred_monitor").sid is not None
        with pytest.raises(KeyError):
            monitored_system.monitor_by_name("nonexistent")


class TestBuildSystem:
    @pytest.mark.parametrize("name", ["native", "kvm-guest", "hypernel"])
    def test_by_name(self, name):
        system = build_system(name, platform_config=small_platform_config())
        assert system.name == name
        init = system.spawn_init()
        assert init.pid == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_system("xen")

    def test_stats_summary_keys(self, monitored_system):
        metrics = collect_metrics(monitored_system)
        assert metrics.sim_cycles == monitored_system.now
        assert "cpu" in metrics.components  # hvc, trapped_msr, vm_exits
        assert "events_detected" in metrics.gauges
