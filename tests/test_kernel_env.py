"""Unit tests for the execution-environment cost adapters."""

import pytest

from repro.arch.cpu import CPUCore
from repro.kernel.env import ExecutionEnvironment, KvmGuestEnvironment
from tests.helpers import small_platform


@pytest.fixture
def cpu():
    return CPUCore(small_platform())


class TestNativeEnvironment:
    def test_page_lifecycle_is_free(self, cpu):
        env = ExecutionEnvironment(cpu)
        before = cpu.clock.now
        env.page_lifecycle(100)
        assert cpu.clock.now == before
        assert env.stats.get("page_ops") == 100

    def test_context_switch_is_free(self, cpu):
        env = ExecutionEnvironment(cpu)
        before = cpu.clock.now
        env.context_switch_overhead()
        assert cpu.clock.now == before

    def test_fork_is_free(self, cpu):
        env = ExecutionEnvironment(cpu)
        before = cpu.clock.now
        env.process_fork()
        assert cpu.clock.now == before

    def test_io_charges_interrupt_costs(self, cpu):
        env = ExecutionEnvironment(cpu)
        before = cpu.clock.now
        env.block_io(4096)
        charged = cpu.clock.now - before
        costs = cpu.costs
        assert charged == (costs.io_request_base + costs.irq_entry
                           + costs.irq_exit)


class TestKvmEnvironment:
    def test_af_faults_fire_periodically(self, cpu):
        env = KvmGuestEnvironment(cpu)
        env.page_lifecycle(env.AF_FAULT_PERIOD - 1)
        assert env.stats.get("af_faults") == 0
        env.page_lifecycle(1)
        assert env.stats.get("af_faults") == 1

    def test_af_fault_cost(self, cpu):
        env = KvmGuestEnvironment(cpu)
        before = cpu.clock.now
        env.page_lifecycle(env.AF_FAULT_PERIOD)
        costs = cpu.costs
        assert cpu.clock.now - before == (
            costs.vm_exit + costs.kvm_af_fault_handling + costs.vm_enter
        )

    def test_accumulator_carries_remainder(self, cpu):
        env = KvmGuestEnvironment(cpu)
        env.page_lifecycle(env.AF_FAULT_PERIOD + 3)
        assert env.stats.get("af_faults") == 1
        env.page_lifecycle(env.AF_FAULT_PERIOD - 3)
        assert env.stats.get("af_faults") == 2

    def test_bulk_count_fires_multiple_faults(self, cpu):
        env = KvmGuestEnvironment(cpu)
        env.page_lifecycle(3 * env.AF_FAULT_PERIOD)
        assert env.stats.get("af_faults") == 3

    def test_context_switch_charges_hypervisor_tax(self, cpu):
        env = KvmGuestEnvironment(cpu)
        before = cpu.clock.now
        env.context_switch_overhead()
        assert cpu.clock.now - before == cpu.costs.kvm_context_switch_overhead

    def test_fork_charges_fixed_overhead(self, cpu):
        env = KvmGuestEnvironment(cpu)
        before = cpu.clock.now
        env.process_fork()
        assert cpu.clock.now - before == cpu.costs.kvm_fork_overhead

    def test_block_io_adds_two_world_trips(self, cpu):
        native = ExecutionEnvironment(cpu)
        start = cpu.clock.now
        native.block_io(4096)
        native_cost = cpu.clock.now - start
        kvm = KvmGuestEnvironment(cpu)
        start = cpu.clock.now
        kvm.block_io(4096)
        kvm_cost = cpu.clock.now - start
        assert kvm_cost == native_cost + 2 * (cpu.costs.vm_exit + cpu.costs.vm_enter)

    def test_net_io_adds_one_world_trip(self, cpu):
        native = ExecutionEnvironment(cpu)
        start = cpu.clock.now
        native.net_io()
        native_cost = cpu.clock.now - start
        kvm = KvmGuestEnvironment(cpu)
        start = cpu.clock.now
        kvm.net_io()
        kvm_cost = cpu.clock.now - start
        assert kvm_cost == native_cost + cpu.costs.vm_exit + cpu.costs.vm_enter
