"""The kernel facade: boot, subsystem wiring, field-level memory access.

A :class:`Kernel` owns every kernel subsystem and the knobs that
distinguish the experimental environments:

* ``config.linear_map_mode`` — ``"section"`` (vanilla 2 MB mappings:
  Native and KVM-guest) or ``"page"`` (the Hypernel-patched 4 KB
  mappings of paper section 6.2);
* ``pgwriter`` — direct stores vs hypercalls for page-table updates;
* ``env`` — bare-metal vs KVM-guest machine-event costs.

All kernel object field accesses go through :meth:`write_field` /
:meth:`read_field`, i.e. through the simulated CPU, MMU and caches — so
they are visible to the MBM exactly when the paper says they should be
(monitored pages made non-cacheable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import KERNEL_IMAGE_BYTES, WORD_BYTES, OpCosts
from repro.errors import ConfigurationError, PermissionFault, SecurityViolation
from repro.hw.platform import Platform
from repro.arch.cpu import CPUCore
from repro.arch.registers import SCTLR_M
from repro.core.hypercalls import HVC_DENIED, HVC_EMULATE_WRITE
from repro.kernel.env import ExecutionEnvironment
from repro.kernel.objects import ObjectLayout
from repro.kernel.pgtable_mgmt import DirectPgTableWriter, PgTableWriter
from repro.kernel.physmem import LinearMap, PageAllocator
from repro.kernel.pipes import PipeManager
from repro.kernel.process import ProcessManager
from repro.kernel.signals import SignalManager
from repro.kernel.slab import SlabRegistry
from repro.kernel.sockets import SocketManager
from repro.kernel.vfs import VFS
from repro.kernel.vmm import UserVmm
from repro.utils.events import EventHook
from repro.utils.stats import StatSet


@dataclass
class KernelConfig:
    """Build-time kernel configuration."""

    #: ``"section"`` (vanilla) or ``"page"`` (Hypernel-patched, §6.2).
    linear_map_mode: str = "section"
    #: DRAM reserved at the bottom for the kernel image + boot tables.
    image_reserve_bytes: int = KERNEL_IMAGE_BYTES
    op_costs: OpCosts = field(default_factory=OpCosts)


class Kernel:
    """One booted kernel instance on one platform/CPU."""

    def __init__(
        self,
        platform: Platform,
        cpu: CPUCore,
        config: Optional[KernelConfig] = None,
        pgwriter: Optional[PgTableWriter] = None,
        env: Optional[ExecutionEnvironment] = None,
    ):
        self.platform = platform
        self.cpu = cpu
        self.costs = platform.config.costs
        self.config = config or KernelConfig()
        self.op_costs = self.config.op_costs
        self.linear_map = LinearMap(platform, self.config.linear_map_mode)
        self.allocator: Optional[PageAllocator] = None
        self.pgwriter: PgTableWriter = pgwriter or DirectPgTableWriter(
            cpu, self.linear_map
        )
        self.env: ExecutionEnvironment = env or ExecutionEnvironment(cpu)
        self.stats = StatSet("kernel")
        # Object lifecycle hooks: security monitors subscribe here
        # (models the in-kernel hooks of paper section 5.3).
        self.object_alloc = EventHook("object_alloc")
        self.object_free = EventHook("object_free")
        # Fired just before the kernel performs a *legitimate* update of
        # a monitored sensitive field (e.g. setuid), so integrity
        # monitors can whitelist the incoming MBM event.
        self.authorized_update = EventHook("authorized_update")
        self._booted = False
        # Subsystems are created at boot.
        self.slab: Optional[SlabRegistry] = None
        self.vmm: Optional[UserVmm] = None
        self.vfs: Optional[VFS] = None
        self.procs: Optional[ProcessManager] = None
        self.signals: Optional[SignalManager] = None
        self.pipes: Optional[PipeManager] = None
        self.sockets: Optional[SocketManager] = None
        self.sys = None  # SyscallLayer, created at boot

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Bring the kernel up: linear map, MMU on, subsystems."""
        if self._booted:
            raise ConfigurationError("kernel already booted")
        config = self.platform.config
        image_base = config.dram_base
        image_limit = image_base + self.config.image_reserve_bytes
        # Boot translation tables are carved from the top of the image
        # reservation (enough for the page-mode map of all of DRAM).
        table_pool_base = image_base + 2 * 1024 * 1024
        root = self.linear_map.build(table_pool_base, image_limit)
        self.allocator = PageAllocator(
            *config.page_pool(self.config.image_reserve_bytes))
        self.cpu.msr("TTBR1_EL1", root)
        self.cpu.msr("SCTLR_EL1", self.cpu.regs.read("SCTLR_EL1") | SCTLR_M)
        self.slab = SlabRegistry(self)
        self.vmm = UserVmm(self)
        self.vfs = VFS(self)
        self.procs = ProcessManager(self)
        self.signals = SignalManager(self)
        self.pipes = PipeManager(self)
        self.sockets = SocketManager(self)
        from repro.kernel.syscalls import SyscallLayer  # late: avoids cycle
        self.sys = SyscallLayer(self)
        self._booted = True
        self.stats.add("booted")

    @property
    def booted(self) -> bool:
        return self._booted

    def uptime(self) -> int:
        """A time value for timestamps (derived from the cycle clock)."""
        return self.platform.clock.now >> 10

    # ------------------------------------------------------------------
    # Kernel-space memory access (with granularity-gap fallback)
    # ------------------------------------------------------------------
    def kwrite(self, kvaddr: int, value: int) -> None:
        """Write one word of kernel memory.

        If the write faults because its page was collaterally made
        read-only (a page table sharing a 2 MB section, the protection-
        granularity gap of paper sections 1/6.2), the kernel falls back
        to asking Hypersec to validate and emulate the write.
        """
        try:
            self.cpu.write(kvaddr, value)
        except PermissionFault:
            self.stats.add("granularity_gap_faults")
            self.cpu.compute(self.op_costs.fault_entry)
            result = self.cpu.hvc(
                HVC_EMULATE_WRITE, self.linear_map.pa(kvaddr), value
            )
            if result == HVC_DENIED:
                raise SecurityViolation(
                    f"Hypersec denied emulated write at {kvaddr:#x}",
                    policy="pgtable",
                )

    def kwrite_block(self, kvaddr: int, nwords: int) -> None:
        """Bulk kernel write with the granularity-gap fallback.

        When the destination's section was collaterally write-protected,
        every one of the ``nwords`` stores would trap; the full per-word
        trap cost is charged here and a single bulk hypercall performs
        the writes (simulation batching only — see
        ``HVC_EMULATE_WRITE_BLOCK``).
        """
        try:
            self.cpu.write_block(kvaddr, nwords)
        except PermissionFault:
            self.stats.add("granularity_gap_faults", nwords)
            self.cpu.compute(
                nwords
                * (
                    self.op_costs.fault_entry
                    + self.costs.hvc_entry
                    + self.costs.hvc_exit
                )
            )
            from repro.core.hypercalls import HVC_EMULATE_WRITE_BLOCK
            result = self.cpu.hvc(
                HVC_EMULATE_WRITE_BLOCK, self.linear_map.pa(kvaddr), nwords
            )
            if result == HVC_DENIED:
                raise SecurityViolation(
                    f"Hypersec denied emulated block write at {kvaddr:#x}",
                    policy="pgtable",
                )

    def kread(self, kvaddr: int) -> int:
        """Read one word of kernel memory."""
        return self.cpu.read(kvaddr)

    def write_field(
        self,
        obj_paddr: int,
        layout: ObjectLayout,
        name: str,
        value: int,
        index: int = 0,
    ) -> None:
        """Write word ``index`` of field ``name`` of an object instance."""
        field_def = layout.field(name)
        if index >= field_def.size:
            raise ConfigurationError(
                f"{layout.name}.{name}[{index}] out of range"
            )
        word_paddr = obj_paddr + field_def.byte_offset + index * WORD_BYTES
        # Announce the legitimate update before performing it, so
        # integrity monitors can tell kernel-code writes (trusted code
        # paths, per the threat model) from arbitrary-write exploits.
        self.authorized_update.fire(word_paddr, value)
        self.kwrite(self.linear_map.kva(word_paddr), value)

    def read_field(
        self, obj_paddr: int, layout: ObjectLayout, name: str, index: int = 0
    ) -> int:
        """Read word ``index`` of field ``name`` of an object instance."""
        field_def = layout.field(name)
        if index >= field_def.size:
            raise ConfigurationError(
                f"{layout.name}.{name}[{index}] out of range"
            )
        return self.kread(
            self.linear_map.kva(
                obj_paddr + field_def.byte_offset + index * WORD_BYTES
            )
        )

    def alloc_page(self, purpose: str) -> int:
        """Allocate one kernel page (slab, page cache, buffers).

        Reports the page-lifecycle event to the execution environment:
        under KVM, freshly (re)used guest pages periodically take
        stage-2 access-flag faults (page aging).
        """
        paddr = self.allocator.alloc(purpose)
        self.env.page_lifecycle(1)
        return paddr

    def memory_copy(self, src_paddr: int, dst_paddr: int, nwords: int) -> None:
        """Functional bulk copy (timing charged separately by callers)."""
        self.platform.memory.copy_words(src_paddr, dst_paddr, nwords)

    def zero_page(self, paddr: int) -> None:
        """clear_page(): charge streaming-store timing *and* functionally
        zero the frame (page-table pages must really read as invalid)."""
        from repro.config import PAGE_WORDS
        self.kwrite_block(self.linear_map.kva(paddr), PAGE_WORDS)
        self.platform.memory.fill(paddr, PAGE_WORDS, 0)
