"""Unit tests for Hypersec's policies (paper sections 5.2, 5.3, 6.1)."""

import pytest

from repro.config import PAGE_BYTES, PAGE_WORDS, WORD_BYTES
from repro.errors import PermissionFault, SecurityViolation
from repro.core import hypercalls as hc
from repro.core.hypernel import build_hypernel
from repro.arch.pagetable import make_page_desc, make_table_desc
from repro.arch.registers import SCTLR_M
from repro.security import CredIntegrityMonitor


@pytest.fixture
def system(hypernel_system):
    hypernel_system.spawn_init()
    return hypernel_system


@pytest.fixture
def hypersec(system):
    return system.hypersec


@pytest.fixture
def kernel(system):
    return system.kernel


class TestInitialization:
    def test_el2_registers_configured(self, system):
        regs = system.cpu.regs
        assert regs.read("VBAR_EL2") != 0
        assert regs.read("SP_EL2") != 0
        assert regs.read("TTBR0_EL2") == system.platform.secure_base

    def test_tvm_enabled_after_protect(self, system):
        assert system.cpu.regs.tvm_enabled

    def test_stage2_stays_off(self, system):
        """The whole point: no nested paging."""
        assert not system.cpu.regs.stage2_enabled

    def test_double_protect_rejected(self, system, kernel):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            system.hypersec.protect(kernel)

    def test_linear_map_tables_are_read_only(self, system, kernel):
        table = next(iter(system.hypersec.linear_tables))
        with pytest.raises(PermissionFault):
            kernel.cpu.write(kernel.linear_map.kva(table), 0)


class TestPgtableWritePolicy:
    def _any_l3(self, kernel):
        mm = kernel.procs.current.mm
        return next(pa for path, pa in mm.tables.items() if len(path) == 2)

    def test_legit_update_accepted(self, kernel, hypersec):
        table = self._any_l3(kernel)
        frame = kernel.allocator.alloc("probe")
        desc = make_page_desc(frame, writable=True, user=True)
        result = kernel.cpu.hvc(hc.HVC_PGTABLE_WRITE, table + 100 * 8, desc, 3)
        assert result == hc.HVC_OK
        assert kernel.platform.bus.peek(table + 100 * 8) == desc

    def test_unregistered_target_denied(self, kernel, hypersec):
        rogue = kernel.allocator.alloc("attacker")
        result = kernel.cpu.hvc(
            hc.HVC_PGTABLE_WRITE, rogue, make_page_desc(rogue), 3
        )
        assert result == hc.HVC_DENIED
        assert hypersec.stats.get("alert.pgtable_target") == 1

    def test_secure_region_mapping_denied(self, kernel, hypersec, system):
        table = self._any_l3(kernel)
        desc = make_page_desc(system.platform.secure_base, writable=True)
        result = kernel.cpu.hvc(hc.HVC_PGTABLE_WRITE, table + 101 * 8, desc, 3)
        assert result == hc.HVC_DENIED
        assert hypersec.stats.get("alert.secure_mapping") == 1

    def test_writable_mapping_of_table_denied(self, kernel, hypersec):
        table = self._any_l3(kernel)
        other_table = next(iter(hypersec.table_pages))
        desc = make_page_desc(other_table, writable=True)
        result = kernel.cpu.hvc(hc.HVC_PGTABLE_WRITE, table + 102 * 8, desc, 3)
        assert result == hc.HVC_DENIED

    def test_readonly_mapping_of_table_allowed(self, kernel, hypersec):
        table = self._any_l3(kernel)
        other_table = next(iter(hypersec.table_pages))
        desc = make_page_desc(other_table, writable=False)
        result = kernel.cpu.hvc(hc.HVC_PGTABLE_WRITE, table + 103 * 8, desc, 3)
        assert result == hc.HVC_OK

    def test_w_xor_x_enforced(self, kernel, hypersec):
        table = self._any_l3(kernel)
        frame = kernel.allocator.alloc("probe")
        desc = make_page_desc(frame, writable=True, executable=True, user=False)
        result = kernel.cpu.hvc(hc.HVC_PGTABLE_WRITE, table + 104 * 8, desc, 3)
        assert result == hc.HVC_DENIED
        assert hypersec.stats.get("alert.w_xor_x") == 1

    def test_table_pointer_to_unregistered_page_denied(self, kernel, hypersec):
        root = kernel.procs.current.mm.pgd
        rogue = kernel.allocator.alloc("attacker")
        result = kernel.cpu.hvc(
            hc.HVC_PGTABLE_WRITE, root + 400 * 8, make_table_desc(rogue), 1
        )
        assert result == hc.HVC_DENIED


class TestTableLifecyclePolicy:
    def test_dirty_table_page_rejected(self, kernel, hypersec):
        page = kernel.allocator.alloc("pgtable")
        kernel.platform.bus.poke(page + 64, 0xBAD)
        result = kernel.cpu.hvc(hc.HVC_PGTABLE_ALLOC, page, 0)
        assert result == hc.HVC_DENIED
        assert hypersec.stats.get("alert.pgtable_alloc_dirty") == 1

    def test_dirty_last_word_rejected(self, kernel, hypersec):
        """The zero scan covers the page up to its final word."""
        page = kernel.allocator.alloc("pgtable")
        kernel.platform.memory.fill(page, PAGE_WORDS, 0)
        kernel.platform.bus.poke(page + PAGE_BYTES - WORD_BYTES, 0xBAD)
        result = kernel.cpu.hvc(hc.HVC_PGTABLE_ALLOC, page, 0)
        assert result == hc.HVC_DENIED
        assert hypersec.stats.get("alert.pgtable_alloc_dirty") == 1
        assert page not in hypersec.table_pages

    def test_free_with_only_last_slot_populated_denied(self, kernel,
                                                       hypersec):
        """The emptiness scan covers the table up to its final slot."""
        hvc = kernel.cpu.hvc
        outer, inner = (kernel.allocator.alloc("pgtable") for _ in range(2))
        for table in (outer, inner):
            kernel.platform.memory.fill(table, PAGE_WORDS, 0)
            assert hvc(hc.HVC_PGTABLE_ALLOC, table, 0) == hc.HVC_OK
        # Link outer under the process root so its level is known, fill
        # only its last slot, then unlink it again.
        pgd = kernel.procs.current.mm.pgd
        slot = next(pgd + index * WORD_BYTES for index in range(PAGE_WORDS)
                    if kernel.platform.bus.peek(pgd + index * WORD_BYTES) == 0)
        assert hvc(hc.HVC_PGTABLE_WRITE, slot,
                   make_table_desc(outer), 1) == hc.HVC_OK
        last_slot = outer + PAGE_BYTES - WORD_BYTES
        assert hvc(hc.HVC_PGTABLE_WRITE, last_slot,
                   make_table_desc(inner), 2) == hc.HVC_OK
        assert hvc(hc.HVC_PGTABLE_WRITE, slot, 0, 1) == hc.HVC_OK
        assert hvc(hc.HVC_PGTABLE_FREE, outer) == hc.HVC_DENIED
        assert hypersec.stats.get("alert.pgtable_free_nonempty") == 1
        assert outer in hypersec.table_pages
        # With the last slot cleared the same free is legitimate.
        assert hvc(hc.HVC_PGTABLE_WRITE, last_slot, 0, 2) == hc.HVC_OK
        assert hvc(hc.HVC_PGTABLE_FREE, outer) == hc.HVC_OK

    def test_registered_table_becomes_read_only_then_writable(self, kernel, hypersec):
        page = kernel.allocator.alloc("pgtable")
        kernel.platform.memory.fill(page, 512, 0)
        assert kernel.cpu.hvc(hc.HVC_PGTABLE_ALLOC, page, 0) == hc.HVC_OK
        with pytest.raises(PermissionFault):
            kernel.cpu.write(kernel.linear_map.kva(page), 1)
        assert kernel.cpu.hvc(hc.HVC_PGTABLE_FREE, page) == hc.HVC_OK
        kernel.cpu.write(kernel.linear_map.kva(page), 1)  # writable again

    def test_duplicate_registration_denied(self, kernel, hypersec):
        table = next(iter(hypersec.table_pages))
        assert kernel.cpu.hvc(hc.HVC_PGTABLE_ALLOC, table, 0) == hc.HVC_DENIED

    def test_free_of_unknown_page_denied(self, kernel, hypersec):
        page = kernel.allocator.alloc("probe")
        assert kernel.cpu.hvc(hc.HVC_PGTABLE_FREE, page) == hc.HVC_DENIED


class TestTrappedRegisters:
    def test_legit_context_switch_allowed(self, kernel):
        init = kernel.procs.current
        child = kernel.procs.fork(init)
        kernel.procs.context_switch(child)
        kernel.procs.context_switch(init)

    def test_rogue_ttbr0_refused(self, kernel):
        rogue = kernel.allocator.alloc("attacker")
        with pytest.raises(SecurityViolation):
            kernel.cpu.msr("TTBR0_EL1", rogue)

    def test_rogue_ttbr1_refused(self, kernel):
        with pytest.raises(SecurityViolation):
            kernel.cpu.msr("TTBR1_EL1", kernel.allocator.alloc("attacker"))

    def test_ttbr1_reload_of_good_root_allowed(self, kernel, hypersec):
        kernel.cpu.msr("TTBR1_EL1", hypersec.kernel_root)

    def test_mmu_disable_refused(self, kernel):
        current = kernel.cpu.mrs("SCTLR_EL1")
        with pytest.raises(SecurityViolation):
            kernel.cpu.msr("SCTLR_EL1", current & ~SCTLR_M)

    def test_tcr_retune_refused(self, kernel):
        with pytest.raises(SecurityViolation):
            kernel.cpu.msr("TCR_EL1", 0xDEAD)


class TestMonitoringPath:
    @pytest.fixture
    def monitored(self, platform_config):
        system = build_hypernel(
            platform_config=platform_config,
            monitors=[CredIntegrityMonitor()],
        )
        system.spawn_init()
        return system

    def test_region_registered_on_cred_alloc(self, monitored):
        assert monitored.hypersec.stats.get("regions_registered") > 0
        assert monitored.hypersec.monitored_word_count() > 0

    def test_monitored_page_is_uncacheable(self, monitored):
        kernel = monitored.kernel
        init = kernel.procs.current
        result = kernel.cpu.mmu.translate(kernel.linear_map.kva(init.cred_pa))
        assert not result.cacheable

    def test_region_unregistered_on_free(self, monitored):
        kernel = monitored.kernel
        init = kernel.procs.current
        words_before = monitored.hypersec.monitored_word_count()
        child = kernel.procs.fork(init)
        assert monitored.hypersec.monitored_word_count() > words_before
        kernel.procs.context_switch(child)
        kernel.procs.exit(child)
        kernel.procs.context_switch(init)
        assert monitored.hypersec.monitored_word_count() == words_before

    def test_cacheability_restored_when_last_region_leaves(self, monitored):
        kernel = monitored.kernel
        init = kernel.procs.current
        child = kernel.procs.fork(init)
        cred_page = child.cred_pa & ~(PAGE_BYTES - 1)
        kernel.procs.context_switch(child)
        kernel.procs.exit(child)
        kernel.procs.context_switch(init)
        refs = monitored.hypersec._monitored_page_refs.get(cred_page, 0)
        result = kernel.cpu.mmu.translate(kernel.linear_map.kva(cred_page))
        assert result.cacheable == (refs == 0)

    def test_event_dispatched_to_app(self, monitored):
        kernel = monitored.kernel
        init = kernel.procs.current
        app = monitored.monitor_by_name("cred_monitor")
        events_before = app.event_count
        kernel.sys.setuid(init, 1000)
        assert app.event_count >= events_before + 4
        assert not app.alerts  # announced updates raise no alarm

    def test_register_region_rejects_unknown_sid(self, monitored):
        kernel = monitored.kernel
        result = kernel.cpu.hvc(
            hc.HVC_REGISTER_REGION, 999,
            kernel.linear_map.kva(kernel.platform.config.dram_base), 64,
        )
        assert result == hc.HVC_DENIED

    def test_register_region_rejects_secure_target(self, monitored):
        kernel = monitored.kernel
        app = monitored.monitors[0]
        secure_kva = kernel.linear_map.kva(monitored.platform.secure_base)
        result = kernel.cpu.hvc(hc.HVC_REGISTER_REGION, app.sid, secure_kva, 64)
        assert result == hc.HVC_DENIED


class TestEmulatedWrites:
    def test_emulate_rejects_table_target(self, kernel, hypersec):
        table = next(iter(hypersec.table_pages))
        result = kernel.cpu.hvc(hc.HVC_EMULATE_WRITE, table + 8, 0xBAD)
        assert result == hc.HVC_DENIED

    def test_emulate_rejects_secure_target(self, kernel, hypersec, system):
        result = kernel.cpu.hvc(
            hc.HVC_EMULATE_WRITE, system.platform.secure_base + 64, 1
        )
        assert result == hc.HVC_DENIED

    def test_emulate_performs_benign_write(self, kernel, hypersec):
        frame = kernel.allocator.alloc("probe")
        result = kernel.cpu.hvc(hc.HVC_EMULATE_WRITE, frame + 16, 0x77)
        assert result == hc.HVC_OK
        assert kernel.platform.bus.peek(frame + 16) == 0x77

    def test_unknown_hypercall_denied(self, kernel, hypersec):
        assert kernel.cpu.hvc(0x7777) == hc.HVC_DENIED
        assert hypersec.stats.get("alert.unknown_hypercall") == 1
