"""Unit tests for the KVM-style hypervisor (nested paging baseline)."""

import pytest

from repro.config import PAGE_BYTES
from repro.errors import SecurityViolation


@pytest.fixture
def system(kvm_system):
    kvm_system.spawn_init()
    return kvm_system


class TestStage2DemandFaulting:
    def test_kernel_runs_under_nested_paging(self, system):
        assert system.cpu.regs.stage2_enabled
        assert system.kvm.stats.get("stage2_faults") > 0

    def test_faulted_pages_are_identity_mapped(self, system):
        kernel = system.kernel
        paddr = kernel.allocator.alloc("test")
        kva = kernel.linear_map.kva(paddr)
        kernel.cpu.write(kva, 0xCAFE)
        assert kernel.cpu.read(kva) == 0xCAFE
        assert system.platform.bus.peek(paddr) == 0xCAFE

    def test_second_touch_takes_no_exit(self, system):
        kernel = system.kernel
        paddr = kernel.allocator.alloc("test")
        kva = kernel.linear_map.kva(paddr)
        kernel.cpu.write(kva, 1)
        exits = system.cpu.stats.get("vm_exits")
        kernel.cpu.write(kva, 2)
        kernel.cpu.read(kva)
        assert system.cpu.stats.get("vm_exits") == exits

    def test_guest_cannot_reach_host_memory(self, system):
        """An IPA outside the guest's range is refused by KVM."""
        from repro.errors import Stage2Fault
        from repro.hypervisor.kvm import KvmHypervisor

        with pytest.raises(SecurityViolation):
            system.kvm.handle_stage2_fault(
                system.cpu,
                Stage2Fault("test", ipa=system.platform.secure_base, is_write=True),
            )

    def test_prepopulate_removes_faults(self, platform_config):
        from repro.core.hypernel import build_kvm_guest

        system = build_kvm_guest(
            platform_config=platform_config, prepopulate_stage2=True
        )
        faults_before = system.kvm.stats.get("stage2_faults")
        system.spawn_init()
        assert system.kvm.stats.get("stage2_faults") == faults_before


class TestBulkPrepopulate:
    @pytest.mark.parametrize("skip_head,skip_tail", [(0, 0), (5, 3)])
    def test_matches_mapping_page_by_page(self, platform_config, skip_head,
                                          skip_tail):
        """``prepopulate`` writes the same stage-2 tables, charges the
        same cycles and counts the same events as ``map_ipa`` on every
        page in turn, also for a range that starts and ends mid-line."""
        from repro.core.hypernel import build_kvm_guest
        from repro.obs import collect_metrics

        bulk, ref = (build_kvm_guest(platform_config=platform_config)
                     for _ in range(2))
        base = bulk.kvm.guest_base + skip_head * PAGE_BYTES
        limit = bulk.kvm.guest_limit - skip_tail * PAGE_BYTES
        bulk.kvm.prepopulate(base, limit)
        for ipa in range(base, limit, PAGE_BYTES):
            ref.kvm.map_ipa(ipa)
        ref.cpu.mmu.invalidate_stage2()

        assert bulk.platform.clock.now == ref.platform.clock.now
        assert bulk.count_accesses() == ref.count_accesses()
        assert (collect_metrics(bulk).to_dict()
                == collect_metrics(ref).to_dict())
        for level in ("l1", "l2"):
            assert (getattr(bulk.platform.caches, level)._sets
                    == getattr(ref.platform.caches, level)._sets)
        table_base = bulk.platform.secure_base
        assert bulk.kvm._table_cursor == ref.kvm._table_cursor
        words = (bulk.kvm._table_cursor - table_base) // 8
        assert (bulk.platform.bus.memory.read_words(table_base, words)
                == ref.platform.bus.memory.read_words(table_base, words))


class TestNestedWalkCost:
    def test_nested_walks_fetch_more_descriptors(self, system, native_system):
        native_system.spawn_init()
        for sys_handle in (system, native_system):
            kernel = sys_handle.kernel
            # Touch a fresh page through a cold TLB.
            paddr = kernel.allocator.alloc("probe")
            sys_handle.cpu.tlbi_all()
            kernel.cpu.read(kernel.linear_map.kva(paddr))
        native_fetches = native_system.cpu.mmu.stats.get("stage2_desc_fetches")
        kvm_fetches = system.cpu.mmu.stats.get("stage2_desc_fetches")
        assert native_fetches == 0
        assert kvm_fetches > 0

    def test_fork_slower_than_native(self, system, native_system):
        results = {}
        for sys_handle in (system, native_system):
            kernel = sys_handle.kernel
            if kernel.procs.current is None:
                sys_handle.spawn_init()
            init = kernel.procs.current

            def cycle():
                child = kernel.sys.fork(init)
                kernel.procs.context_switch(child)
                kernel.sys.exit(child)
                kernel.procs.context_switch(init)
                kernel.sys.wait(init)

            for _ in range(3):
                cycle()
            start = sys_handle.now
            for _ in range(5):
                cycle()
            results[sys_handle.name] = sys_handle.now - start
        assert results["kvm-guest"] > results["native"]


class TestTrapHandling:
    def test_msr_not_trapped_under_kvm(self, system):
        """KVM does not set TVM: the guest manages its own tables."""
        exits = system.kvm.stats.get("trapped_msr")
        system.cpu.msr("TTBR0_EL1", system.kernel.procs.current.mm.pgd)
        assert system.kvm.stats.get("trapped_msr") == exits

    def test_guest_hvc_is_absorbed(self, system):
        assert system.cpu.hvc(0x84000000) == 0  # PSCI-style call
        assert system.kvm.stats.get("hvc") == 1


class TestHostTableManagement:
    def test_stage2_tables_live_in_host_memory(self, system):
        assert system.kvm.s2_root >= system.platform.secure_base

    def test_map_ipa_rejects_when_out_of_table_memory(self, platform_config):
        from repro.hw.platform import Platform
        from repro.arch.cpu import CPUCore
        from repro.hypervisor.kvm import KvmHypervisor
        from repro.errors import AllocationError

        platform = Platform(platform_config)
        cpu = CPUCore(platform)
        kvm = KvmHypervisor(platform, cpu)
        kvm.install()
        kvm._table_limit = kvm._table_cursor  # exhaust artificially
        with pytest.raises(AllocationError):
            kvm.map_ipa(platform.config.dram_base + 123 * PAGE_BYTES)
