"""Unit tests for the system-register file."""

import pytest

from repro.arch.registers import (
    HCR_TVM,
    HCR_VM,
    SCTLR_M,
    SystemRegisters,
    VM_CONTROL_REGISTERS,
)


@pytest.fixture
def regs():
    return SystemRegisters()


class TestBasicAccess:
    def test_reset_values_are_zero(self, regs):
        assert regs.read("TTBR1_EL1") == 0
        assert regs.read("HCR_EL2") == 0

    def test_write_read_roundtrip(self, regs):
        regs.write("TTBR0_EL1", 0x8010_0000)
        assert regs.read("TTBR0_EL1") == 0x8010_0000

    def test_unknown_register_rejected(self, regs):
        with pytest.raises(KeyError):
            regs.read("XYZZY_EL9")
        with pytest.raises(KeyError):
            regs.write("XYZZY_EL9", 0)

    def test_values_truncate_to_64_bits(self, regs):
        regs.write("SP_EL2", 1 << 70 | 3)
        assert regs.read("SP_EL2") == 3


class TestBitHelpers:
    def test_set_and_clear_bits(self, regs):
        regs.set_bits("HCR_EL2", HCR_TVM | HCR_VM)
        assert regs.read("HCR_EL2") & (HCR_TVM | HCR_VM) == HCR_TVM | HCR_VM
        regs.write("HCR_EL2", regs.read("HCR_EL2") & ~HCR_VM)
        assert regs.read("HCR_EL2") & (HCR_TVM | HCR_VM) == HCR_TVM
        assert regs.tvm_enabled and not regs.stage2_enabled


class TestPredicates:
    def test_stage2_enabled_tracks_hcr_vm(self, regs):
        assert not regs.stage2_enabled
        regs.set_bits("HCR_EL2", HCR_VM)
        assert regs.stage2_enabled

    def test_tvm_enabled_tracks_hcr_tvm(self, regs):
        assert not regs.tvm_enabled
        regs.set_bits("HCR_EL2", HCR_TVM)
        assert regs.tvm_enabled

    def test_mmu_enabled_tracks_sctlr_m(self, regs):
        assert not regs.mmu_enabled
        regs.set_bits("SCTLR_EL1", SCTLR_M)
        assert regs.mmu_enabled


class TestTrapSet:
    def test_vm_control_registers_cover_the_paper_set(self):
        """Paper 5.2.2/6.1: TTBRs and MMU config must be trappable."""
        for name in ("TTBR0_EL1", "TTBR1_EL1", "SCTLR_EL1", "TCR_EL1"):
            assert name in VM_CONTROL_REGISTERS

    def test_el2_registers_not_in_trap_set(self):
        assert "HCR_EL2" not in VM_CONTROL_REGISTERS
