"""Exception hierarchy for the Hypernel reproduction.

Three families live here:

* **Simulation errors** (:class:`SimulationError` and subclasses) signal
  misuse of the simulator itself — out-of-range physical addresses,
  double-free in an allocator, malformed descriptors.  They indicate a bug
  in the caller and are never part of the modelled machine's behaviour.

* **Architectural faults** (:class:`ArchFault` and subclasses) model the
  synchronous exceptions a real AArch64 machine raises — translation
  faults, permission faults, trapped system-register accesses, hypercalls.
  They are *control flow* inside the simulation: the CPU model catches
  them and routes them to the exception vector of the appropriate
  exception level, exactly as hardware would.

* **Runner errors** (:class:`RunnerError`) fail an experiment run: a
  cell raised, or its worker timed out.  The CLI reports one as a
  single line naming the cell and the cause.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors that indicate misuse of the simulator."""


class MemoryRangeError(SimulationError):
    """A physical address fell outside the installed memory."""


class AlignmentError(SimulationError):
    """An access was not aligned to its required size."""


class AllocationError(SimulationError):
    """A memory allocator could not satisfy or validate a request."""


class ConfigurationError(SimulationError):
    """A component was assembled or configured inconsistently."""


class SnapshotError(SimulationError):
    """A machine snapshot could not be written, read or restored."""


class ProtocolError(SimulationError):
    """A hardware-protocol invariant was violated (e.g. FIFO overrun
    handling misused, ring-buffer read past the producer)."""


class IntegrityError(SimulationError):
    """A run-integrity check failed: the monitoring pipeline lost events
    (FIFO overrun, ring overflow), or a cell's payload carried no
    report to show it did not.  Raised by :mod:`repro.obs.metrics` so
    silent event loss fails loudly instead of skewing Table 2."""


class RunnerError(RuntimeError):
    """A cell raised, crashed its worker and then raised in-process, or
    timed out; ``cell`` is the :class:`~repro.tools.runner.Cell`."""

    def __init__(self, message: str, cell=None):
        super().__init__(message)
        self.cell = cell


class ArchFault(Exception):
    """Base class for modelled architectural synchronous exceptions.

    :param vaddr: faulting virtual address, if the fault is address-related.
    :param el: exception level the fault was taken *from*.
    """

    def __init__(self, message: str, vaddr: int | None = None, el: int | None = None):
        super().__init__(message)
        self.vaddr = vaddr
        self.el = el


class TranslationFault(ArchFault):
    """Stage-1 translation failed: no valid descriptor for the address."""


class PermissionFault(ArchFault):
    """Stage-1 translation succeeded but the access violates permissions."""


class Stage2Fault(ArchFault):
    """Stage-2 (IPA -> PA) translation failed or was not permitted.

    On real hardware this is taken to EL2; the simulator routes it to the
    hypervisor model.  ``ipa`` carries the faulting intermediate physical
    address and ``is_write`` whether the access was a store.
    """

    def __init__(self, message: str, ipa: int, is_write: bool, vaddr: int | None = None):
        super().__init__(message, vaddr=vaddr)
        self.ipa = ipa
        self.is_write = is_write


class TrappedInstruction(ArchFault):
    """A privileged instruction executed at EL1 was trapped to EL2.

    Raised when, e.g., ``HCR_EL2.TVM`` is set and the kernel writes a
    virtual-memory control register such as ``TTBR1_EL1``.
    """

    def __init__(self, message: str, register: str, value: int):
        super().__init__(message)
        self.register = register
        self.value = value


class SecurityViolation(Exception):
    """A security policy enforced by Hypersec (or a baseline) was violated.

    These are *detections*: Hypersec raises one when it refuses a hostile
    page-table update, a write into the secure space, or a trapped
    register write that would disable protection.  Attack scenarios assert
    on them.
    """

    def __init__(self, message: str, policy: str = "generic"):
        super().__init__(message)
        self.policy = policy
