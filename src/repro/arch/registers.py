"""System registers of the simulated machine.

Only registers the reproduction actually exercises are modelled.  The
virtualization-extension behaviour that matters to Hypernel:

* ``HCR_EL2.TVM`` — when set, EL1 writes to the *virtual-memory control
  registers* (TTBRs, TCR, SCTLR, MAIR) trap to EL2.  This is how
  Hypersec intercepts attempts to switch to a rogue page table or to
  disable the MMU (paper sections 5.2.2 and 6.1).
* ``HCR_EL2.VM`` — enables stage-2 translation (nested paging).  The KVM
  baseline sets it; Hypernel's whole point is to leave it clear.
"""

from __future__ import annotations

from typing import Dict

from repro.utils.bitops import bit

# HCR_EL2 bit positions (matching the ARM ARM).
HCR_VM = bit(0)    #: Stage-2 translation enable.
HCR_TVM = bit(26)  #: Trap EL1 writes to virtual-memory control registers.

# SCTLR_EL1 bit positions.
SCTLR_M = bit(0)   #: EL1/EL0 stage-1 MMU enable.

#: EL1 registers whose *writes* are trapped to EL2 when HCR_EL2.TVM is set.
VM_CONTROL_REGISTERS = frozenset(
    {
        "SCTLR_EL1",
        "TTBR0_EL1",
        "TTBR1_EL1",
        "TCR_EL1",
        "MAIR_EL1",
    }
)

#: Every register the model knows about, with its reset value.
_KNOWN_REGISTERS: Dict[str, int] = {
    # EL1 (kernel) state.
    "SCTLR_EL1": 0,
    "TTBR0_EL1": 0,
    "TTBR1_EL1": 0,
    "TCR_EL1": 0,
    "MAIR_EL1": 0,
    "VBAR_EL1": 0,
    # EL2 (hypervisor / Hypersec) state.
    "HCR_EL2": 0,
    "VTTBR_EL2": 0,   # stage-2 translation root (+ VMID)
    "TTBR0_EL2": 0,   # EL2's own stage-1 root
    "VBAR_EL2": 0,
    "SP_EL2": 0,
    "SCTLR_EL2": 0,
}


class SystemRegisters:
    """The system-register file, with raw (untrapped) access.

    Trapping logic lives in :class:`~repro.arch.cpu.CPUCore`: this class
    is the state, ``CPUCore.msr``/``mrs`` are the (trappable) accessors.
    """

    def __init__(self):
        self._values: Dict[str, int] = dict(_KNOWN_REGISTERS)
        self._refresh_flags()

    def _refresh_flags(self) -> None:
        """Recompute the cached control-bit predicates (see properties)."""
        values = self._values
        hcr = values["HCR_EL2"]
        self._stage2_enabled = bool(hcr & HCR_VM)
        self._tvm_enabled = bool(hcr & HCR_TVM)
        self._mmu_enabled = bool(values["SCTLR_EL1"] & SCTLR_M)

    def read(self, name: str) -> int:
        """Raw read of register ``name``."""
        self._require(name)
        return self._values[name]

    def write(self, name: str, value: int) -> None:
        """Raw write of register ``name`` (bypasses any trapping)."""
        self._require(name)
        self._values[name] = value & ((1 << 64) - 1)
        if name == "HCR_EL2" or name == "SCTLR_EL1":
            self._refresh_flags()

    def set_bits(self, name: str, mask_value: int) -> None:
        """OR ``mask_value`` into the register."""
        self.write(name, self.read(name) | mask_value)

    def clear_bits(self, name: str, mask_value: int) -> None:
        """Clear the bits of ``mask_value`` in the register."""
        self.write(name, self.read(name) & ~mask_value)

    def test_bits(self, name: str, mask_value: int) -> bool:
        """True if all bits of ``mask_value`` are set in the register."""
        return (self.read(name) & mask_value) == mask_value

    def _require(self, name: str) -> None:
        if name not in self._values:
            raise KeyError(f"unknown system register {name!r}")

    # Convenience predicates -------------------------------------------
    # Cached on write (``_refresh_flags``); hot paths (the MMU) read the
    # underscored attributes directly to skip the property protocol.
    @property
    def stage2_enabled(self) -> bool:
        """True when HCR_EL2.VM is set (nested paging active)."""
        return self._stage2_enabled

    @property
    def tvm_enabled(self) -> bool:
        """True when HCR_EL2.TVM is set (VM-register writes trap)."""
        return self._tvm_enabled

    @property
    def mmu_enabled(self) -> bool:
        """True when SCTLR_EL1.M is set (stage-1 translation on)."""
        return self._mmu_enabled
