"""Tests for the Hypersec invariant auditor."""

import pytest

from repro.config import PAGE_BYTES
from repro.arch.pagetable import DESC_AP_WRITE, DESC_NC, make_page_desc
from repro.kernel.objects import CRED


@pytest.fixture
def system(monitored_system):
    monitored_system.spawn_init()
    return monitored_system


class TestCleanStates:
    def test_freshly_protected_system_is_clean(self, hypernel_system):
        hypernel_system.spawn_init()
        report = hypernel_system.hypersec.audit()
        assert report.clean, str(report)
        assert report.tables_walked > 0
        assert report.leaves_checked > 0

    def test_monitored_system_is_clean(self, system):
        report = system.hypersec.audit()
        assert report.clean, str(report)
        assert report.bitmap_words_checked > 0

    def test_clean_after_workload(self, system):
        kernel = system.kernel
        init = kernel.procs.current
        kernel.vfs.mkdir_p("/tmp")
        kernel.sys.creat(init, "/tmp/f")
        child = kernel.sys.fork(init)
        kernel.procs.context_switch(child)
        kernel.sys.execv(child)
        kernel.sys.exit(child)
        kernel.procs.context_switch(init)
        kernel.sys.wait(init)
        report = system.hypersec.audit()
        assert report.clean, str(report)

    def test_clean_after_blocked_attacks(self, system):
        from repro.attacks import (
            AtraAttack,
            MmuDisableAttack,
            PageTableTamperAttack,
            TtbrSwitchAttack,
        )
        init = system.kernel.procs.current
        PageTableTamperAttack().mount(system)
        TtbrSwitchAttack().mount(system)
        MmuDisableAttack().mount(system)
        AtraAttack().mount(system, init)
        report = system.hypersec.audit()
        assert report.clean, str(report)

    def test_report_string(self, system):
        report = system.hypersec.audit()
        assert "audit clean" in str(report)


class TestSeededViolations:
    """Each invariant must actually trip when its property is broken
    behind Hypersec's back (simulating an EL2 bug or a hardware glitch —
    exactly what a periodic audit exists to catch)."""

    def _poison(self, system, raw_mutator):
        """Apply a backdoor mutation and return the audit report."""
        raw_mutator()
        return system.hypersec.audit()

    def test_secure_mapping_detected(self, system):
        kernel = system.kernel
        mm = kernel.procs.current.mm
        l3 = next(pa for path, pa in mm.tables.items() if len(path) == 2)
        desc = make_page_desc(system.platform.secure_base, writable=True)
        report = self._poison(
            system, lambda: system.platform.bus.poke(l3 + 50 * 8, desc)
        )
        assert any(f.invariant == "NO_SECURE_MAPPING" for f in report.findings)

    def test_writable_table_alias_detected(self, system):
        kernel = system.kernel
        mm = kernel.procs.current.mm
        l3 = next(pa for path, pa in mm.tables.items() if len(path) == 2)
        table = next(iter(system.hypersec.table_pages))
        desc = make_page_desc(table, writable=True)
        report = self._poison(
            system, lambda: system.platform.bus.poke(l3 + 51 * 8, desc)
        )
        assert any(f.invariant == "NO_WRITABLE_TABLE_ALIAS"
                   for f in report.findings)

    def test_writable_table_leaf_detected(self, system):
        """A linear-map leaf for a table page flipped back to writable."""
        kernel = system.kernel
        table = next(iter(system.hypersec.table_pages))
        desc_addr, _ = kernel.linear_map.leaf_desc_addr(table)
        raw = system.platform.bus.peek(desc_addr)
        report = self._poison(
            system,
            lambda: system.platform.bus.poke(desc_addr, raw | DESC_AP_WRITE),
        )
        assert any(f.invariant in ("TABLES_READ_ONLY",
                                   "NO_WRITABLE_TABLE_ALIAS")
                   for f in report.findings)

    def test_w_xor_x_detected(self, system):
        kernel = system.kernel
        mm = kernel.procs.current.mm
        l3 = next(pa for path, pa in mm.tables.items() if len(path) == 2)
        frame = kernel.allocator.alloc("probe")
        desc = make_page_desc(frame, writable=True, executable=True, user=False)
        report = self._poison(
            system, lambda: system.platform.bus.poke(l3 + 52 * 8, desc)
        )
        assert any(f.invariant == "W_XOR_X" for f in report.findings)

    def test_recached_monitored_page_detected(self, system):
        kernel = system.kernel
        init = kernel.procs.current
        page = init.cred_pa & ~(PAGE_BYTES - 1)
        desc_addr, _ = kernel.linear_map.leaf_desc_addr(page)
        raw = system.platform.bus.peek(desc_addr)
        report = self._poison(
            system,
            lambda: system.platform.bus.poke(desc_addr, raw & ~DESC_NC),
        )
        assert any(f.invariant == "MONITORED_UNCACHED" for f in report.findings)

    def test_cleared_bitmap_bit_detected(self, system):
        kernel = system.kernel
        init = kernel.procs.current
        word_addr, bit = system.mbm.bitmap.locate(
            init.cred_pa + CRED.field("uid").byte_offset
        )
        raw = system.platform.bus.peek(word_addr)
        report = self._poison(
            system,
            lambda: system.platform.bus.poke(word_addr, raw & ~(1 << bit)),
        )
        assert any(f.invariant == "BITMAP_CONSISTENT" for f in report.findings)

    def test_stray_bitmap_bit_detected(self, system):
        word_addr = system.mbm.bitmap.bitmap_base + 0x2000
        report = self._poison(
            system, lambda: system.platform.bus.poke(word_addr, 0xFFFF)
        )
        assert any(f.invariant == "BITMAP_CONSISTENT" for f in report.findings)

    def test_rogue_ttbr_detected(self, system):
        rogue = system.kernel.allocator.alloc("attacker")
        report = self._poison(
            system, lambda: system.cpu.regs.write("TTBR0_EL1", rogue)
        )
        assert any(f.invariant == "TTBR_INTEGRITY" for f in report.findings)

    def test_findings_render(self, system):
        word_addr = system.mbm.bitmap.bitmap_base + 0x2000
        system.platform.bus.poke(word_addr, 0xFF)
        report = system.hypersec.audit()
        assert "violation" in str(report)

    def test_seeded_violation_survives_snapshot(self, system, tmp_path):
        """The offline checker finds a violation poked into a saved
        image at the address the live auditor names: the forensic use
        case behind ``repro audit --snapshot``."""
        from repro.security.fuzz.snapshot_checker import check_snapshot
        from repro.state import load_snapshot, save_snapshot

        word_addr = system.mbm.bitmap.bitmap_base + 0x2000
        system.platform.bus.poke(word_addr, 0xFFFF)
        live = system.hypersec.audit()
        path = tmp_path / "poisoned.snap"
        save_snapshot(system, path)
        offline = check_snapshot(load_snapshot(path))
        seeded = ("BITMAP_CONSISTENT", word_addr)
        assert seeded in {(f.invariant, f.location) for f in live.findings}
        assert seeded in {(f.invariant, f.location)
                          for f in offline.findings}

    def test_cli_audit_snapshot_exit_codes(self, system, tmp_path, capsys):
        from repro.cli import main
        from repro.state import save_snapshot

        clean = tmp_path / "clean.snap"
        save_snapshot(system, clean)
        assert main(["audit", "--snapshot", str(clean)]) == 0
        assert "audit clean" in capsys.readouterr().out

        system.platform.bus.poke(
            system.mbm.bitmap.bitmap_base + 0x2000, 0xFFFF
        )
        poisoned = tmp_path / "poisoned.snap"
        save_snapshot(system, poisoned)
        assert main(["audit", "--snapshot", str(poisoned)]) == 1
        out = capsys.readouterr().out
        assert "violation" in out and "BITMAP_CONSISTENT" in out

    def test_auditor_survives_table_loops(self, system):
        """A malformed self-referential table must not hang the walk."""
        kernel = system.kernel
        mm = kernel.procs.current.mm
        l3 = next(pa for path, pa in mm.tables.items() if len(path) == 2)
        from repro.arch.pagetable import make_table_desc
        # Point an entry of the pgd back at the pgd itself.
        system.platform.bus.poke(mm.pgd + 300 * 8, make_table_desc(mm.pgd))
        report = system.hypersec.audit()  # must terminate
        assert report.tables_walked > 0
