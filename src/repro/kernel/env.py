"""Execution-environment adapters.

The same kernel code runs bare-metal (Native, Hypernel) or as a KVM
guest.  A few machine events cost differently between those worlds; the
kernel reports them through this adapter and the system builders install
the right implementation.

Modelled KVM-guest costs (calibrated against Dall et al., "ARM
Virtualization: Performance and Architectural Implications", ISCA 2016,
which the paper cites as [9]):

* **page lifecycle** — KVM ages guest pages through the stage-2 access
  flag (kvm_age_gfn / mmu-notifier path): cleared flags make the next
  guest touch take a stage-2 permission-style fault into the
  hypervisor.  Workloads that churn mappings (fork/exec/exit, mmap)
  therefore pay a stream of extra world switches roughly proportional
  to the pages they manipulate.  We charge one access-flag fault per
  ``AF_FAULT_PERIOD`` page operations, deterministically.
* **context switch** — guest scheduling drags the hypervisor in for
  virtual-timer and vGIC state synchronisation; a small per-switch
  overhead.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.arch.cpu import CPUCore
from repro.utils.stats import StatSet


class ExecutionEnvironment:
    """Bare-metal behaviour (Native and Hypernel): no hypervisor tax."""

    name = "native"

    def __init__(self, cpu: CPUCore):
        self.cpu = cpu
        self.costs: CostModel = cpu.costs
        self.stats = StatSet(f"env.{self.name}")

    def page_lifecycle(self, count: int = 1) -> None:
        """``count`` user-page mapping operations occurred."""
        self.stats.add("page_ops", count)

    def context_switch_overhead(self) -> None:
        """An address-space switch occurred."""
        self.stats.add("context_switches")

    def process_fork(self) -> None:
        """A process was forked."""
        self.stats.add("forks")

    def block_io(self, nbytes: int) -> None:
        """One storage request: DMA setup + completion interrupt."""
        self.stats.add("block_ios")
        self.stats.add("block_io_bytes", nbytes)
        self.cpu.compute(
            self.costs.io_request_base + self.costs.irq_entry + self.costs.irq_exit
        )

    def net_io(self, packets: int = 1) -> None:
        """One network send/receive batch (NIC doorbell + completion)."""
        self.stats.add("net_ios")
        self.cpu.compute(
            self.costs.io_request_base + self.costs.irq_entry + self.costs.irq_exit
        )


class KvmGuestEnvironment(ExecutionEnvironment):
    """Guest-mode behaviour: the hypervisor taxes machine events."""

    name = "kvm-guest"

    #: one stage-2 access-flag fault per this many page operations.
    AF_FAULT_PERIOD = 24

    def __init__(self, cpu: CPUCore):
        super().__init__(cpu)
        self._af_accumulator = 0

    def page_lifecycle(self, count: int = 1) -> None:
        self.stats.add("page_ops", count)
        self._af_accumulator += count
        while self._af_accumulator >= self.AF_FAULT_PERIOD:
            self._af_accumulator -= self.AF_FAULT_PERIOD
            self.stats.add("af_faults")
            self.cpu.compute(
                self.costs.vm_exit
                + self.costs.kvm_af_fault_handling
                + self.costs.vm_enter
            )

    def context_switch_overhead(self) -> None:
        self.stats.add("context_switches")
        self.cpu.compute(self.costs.kvm_context_switch_overhead)

    def process_fork(self) -> None:
        """Guest fork drags the hypervisor in well beyond the per-page
        costs: the COW write-protection sweep ends in flush_tlb_mm, whose
        broadcast invalidate also drops every *combined* two-stage TLB
        entry of the VM, and the refill storm walks both stages; KVM's
        page-aging scans also concentrate around address-space
        duplication.  Charged as a calibrated per-fork aggregate
        (see DESIGN.md section 5)."""
        self.stats.add("forks")
        self.cpu.compute(self.costs.kvm_fork_overhead)

    def block_io(self, nbytes: int) -> None:
        """virtio-blk: the doorbell kick exits to the host, and the
        completion is injected with another world-switch round trip."""
        super().block_io(nbytes)
        self.stats.add("vm_exits", 2)
        self.cpu.compute(2 * (self.costs.vm_exit + self.costs.vm_enter))

    def net_io(self, packets: int = 1) -> None:
        """virtio-net: one world-switch round trip per batch — under
        sustained load NAPI polling and TX-kick suppression coalesce the
        doorbell and completion sides."""
        super().net_io(packets)
        self.stats.add("vm_exits", 1)
        self.cpu.compute(self.costs.vm_exit + self.costs.vm_enter)
