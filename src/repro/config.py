"""Platform and cost-model configuration.

The reproduction is *cycle-approximate*: every modelled event (cache hit,
DRAM access, translation-table descriptor fetch, exception entry, world
switch, ...) charges a cycle cost from :class:`CostModel`, and higher-level
kernel operations additionally charge calibrated base compute costs for the
instructions the simulator does not model individually.

Default values are drawn from public figures for the Cortex-A57 (the big
core of the Juno r1 board used in the paper) and from Dall et al., "ARM
Virtualization: Performance and Architectural Implications" (ISCA 2016),
which the paper cites for hypervisor transition costs.  Absolute accuracy
is not the goal — the relative structure (1-stage vs 2-stage walks,
hypercall vs VM-exit round trips) is what drives the reproduced results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


#: Bytes per machine word.  The MBM bitmap maps one *word* to one bit.
WORD_BYTES = 8

#: Bytes per translation granule / smallest page.
PAGE_BYTES = 4096

#: Words per 4 KB page.
PAGE_WORDS = PAGE_BYTES // WORD_BYTES

#: Bytes per level-2 block mapping ("section" in the paper's wording).
SECTION_BYTES = 2 * 1024 * 1024

#: Cache line size used by all cache models.
LINE_BYTES = 64

#: DRAM the kernel reserves at the bottom for its image and boot
#: translation tables (``KernelConfig.image_reserve_bytes``).
KERNEL_IMAGE_BYTES = 24 * 1024 * 1024


@dataclass
class CostModel:
    """Cycle costs for modelled micro-architectural events.

    All values are in CPU cycles of the core under simulation.
    """

    # --- memory hierarchy -------------------------------------------------
    l1_hit: int = 4           #: L1 data cache hit latency.
    l2_hit: int = 12          #: L2 hit latency (after L1 miss).
    dram_row_hit: int = 70    #: DRAM access, open-row hit (~60 ns @ 1.15 GHz).
    dram_row_miss: int = 130  #: DRAM access, row conflict/closed row.
    uncached_access: int = 130  #: Device / non-cacheable access, full round trip.

    # --- MMU --------------------------------------------------------------
    tlb_hit: int = 0          #: Extra cycles on a TLB hit (folded into pipeline).
    walk_step_overhead: int = 2  #: Per-descriptor-fetch control overhead.

    # --- exceptions and privilege transitions ------------------------------
    svc_entry: int = 60       #: EL0 -> EL1 syscall entry (trap + register save).
    svc_exit: int = 60        #: EL1 -> EL0 return.
    hvc_entry: int = 120      #: EL1 -> EL2 hypercall entry (lean Hypersec vectors).
    hvc_exit: int = 120       #: EL2 -> EL1 return.
    trap_entry: int = 200     #: Trapped-instruction entry to EL2 (sync abort path).
    trap_exit: int = 200
    irq_entry: int = 250      #: Asynchronous IRQ take, incl. pipeline flush.
    irq_exit: int = 150

    # --- KVM world switch (Dall et al. report ~thousands of cycles for a
    # --- full trip through the KVM/ARM highvisor on Cortex-A57) -----------
    vm_exit: int = 3500       #: Guest -> host exit, incl. partial state save.
    vm_enter: int = 2900      #: Host -> guest re-entry.
    stage2_fault_handling: int = 2200  #: KVM software work to service one
    #: stage-2 translation fault (page lookup + stage-2 PTE install), on top
    #: of the exit/enter pair and the memory traffic the handler performs.
    kvm_af_fault_handling: int = 900   #: stage-2 access-flag (page aging)
    #: fault service, on top of the exit/enter pair.
    kvm_context_switch_overhead: int = 1600  #: hypervisor involvement per
    #: guest context switch (virtual timer / vGIC state synchronisation).
    kvm_fork_overhead: int = 32000  #: per-fork hypervisor involvement
    #: (combined-TLB refill storm after the COW flush + aging scans);
    #: calibrated against Table 1 (see DESIGN.md section 5).
    io_request_base: int = 900  #: driver + DMA descriptor work per I/O
    #: request, before interrupt costs (and before virtio exits on KVM).

    # --- Hypersec software work (charged on top of hvc entry/exit and the
    # --- memory accesses the verification actually performs) --------------
    hypersec_verify_pte: int = 40    #: Policy checks for one PTE update.
    hypersec_verify_reg: int = 30    #: Policy checks for one trapped MSR.
    hypersec_register_region: int = 120  #: Region bookkeeping + bitmap setup.
    hypersec_irq_dispatch: int = 90  #: Routing one MBM event to its SID.

    # --- MBM hardware pipeline (cycles of the *bus* clock, folded into the
    # --- CPU clock for simplicity; the MBM works off the critical path so
    # --- these costs are only charged to its own occupancy statistics) ----
    mbm_snoop: int = 1
    mbm_bitmap_cache_hit: int = 2
    mbm_bitmap_fetch: int = 130     #: Bitmap word fetch from DRAM on a miss.
    mbm_decision: int = 1


@dataclass
class OpCosts:
    """Base compute costs (cycles) for kernel work the simulator does
    not model access-by-access.

    Calibrated so the *Native* column of Table 1 lands near the paper's
    Native column on the default platform; the KVM and Hypernel columns
    are then emergent (see DESIGN.md section 5).
    """

    slab_alloc: int = 40
    slab_free: int = 30
    fault_entry: int = 1300
    path_component: int = 120
    stat_base: int = 1400
    open_base: int = 500
    close_base: int = 200
    rw_base: int = 400
    create_base: int = 900
    unlink_base: int = 700
    attr_base: int = 300
    sigaction_base: int = 400
    signal_deliver_base: int = 2100
    sigreturn_base: int = 500
    pipe_create_base: int = 2000
    pipe_rw_base: int = 2200
    socket_create_base: int = 4500
    socket_rw_base: int = 5200
    context_switch_base: int = 6000
    fork_base: int = 222000
    exec_base: int = 14000
    exit_base: int = 62000
    wait_base: int = 9000
    mmap_base: int = 8000
    munmap_base: int = 8000
    syscall_dispatch: int = 250


@dataclass
class PlatformConfig:
    """Static description of the simulated platform.

    Defaults model the ARM Versatile Express Juno r1 setup of the paper's
    performance experiments: Cortex-A57 big core at 1.15 GHz with 2 GB of
    motherboard DRAM (the paper moved from the 128 MB daughterboard SDRAM
    to 2 GB DRAM for the performance runs), with the top of DRAM reserved
    as the secure space for Hypersec and the MBM structures.
    """

    cpu_freq_hz: float = 1.15e9
    dram_bytes: int = 2 * 1024 * 1024 * 1024
    dram_base: int = 0x8000_0000
    #: Size of the reserved secure region at the top of DRAM (holds
    #: Hypersec, the MBM bitmap and the MBM ring buffer).
    secure_bytes: int = 128 * 1024 * 1024

    # Cache geometry (Cortex-A57-like).
    l1_bytes: int = 32 * 1024
    l1_ways: int = 2
    l2_bytes: int = 2 * 1024 * 1024
    l2_ways: int = 16

    # TLB geometry.  The A57 has a 48-entry fully-associative L1 TLB and a
    # 1024-entry L2 TLB; we model a single unified TLB in between.
    tlb_entries: int = 512
    #: Stage-2 TLB / IPA walk cache used when nested paging is active
    #: (KVM baseline).  Dedicated stage-2 caching is far smaller than the
    #: main TLB, which is what makes nested walks hurt in practice.
    stage2_tlb_entries: int = 64

    # DRAM banking for the row-buffer model.
    dram_banks: int = 8
    dram_row_bytes: int = 8192

    # MBM geometry (paper: FIFO + bitmap cache + ring buffer on the
    # LogicTile daughterboard).
    mbm_fifo_entries: int = 64
    mbm_bitmap_cache_lines: int = 64
    mbm_ring_entries: int = 1024

    costs: CostModel = field(default_factory=CostModel)

    @property
    def dram_limit(self) -> int:
        """First physical address past the end of DRAM."""
        return self.dram_base + self.dram_bytes

    @property
    def secure_base(self) -> int:
        """Base physical address of the reserved secure region."""
        return self.dram_limit - self.secure_bytes

    def page_pool(self, image_bytes: int = KERNEL_IMAGE_BYTES) -> Tuple[int, int]:
        """``(base, limit)`` of the pages the kernel allocates from: DRAM
        above a kernel image of ``image_bytes``, below the secure region.
        The kernel cannot boot when the pool is empty (``base >= limit``).
        """
        base = self.dram_base + image_bytes
        base += -base % PAGE_BYTES  # round up to a page boundary
        return base, self.secure_base

    def cycles_to_us(self, cycles: int) -> float:
        """Convert a cycle count to microseconds at the CPU frequency."""
        return cycles / self.cpu_freq_hz * 1e6


def juno_r1() -> PlatformConfig:
    """The default platform: Juno r1 big core, 2 GB DRAM (paper section 7)."""
    return PlatformConfig()


#: The ``--dram-mb`` default: the DRAM of the platform the CLI verbs and
#: the evaluation report run on unless told otherwise.
DEFAULT_DRAM_MB = 192


def platform_for(dram_mb: int) -> PlatformConfig:
    """A platform with ``dram_mb`` MB of DRAM, an eighth of it (at
    least 16 MB) reserved as the secure region."""
    return PlatformConfig(
        dram_bytes=dram_mb * 1024 * 1024,
        secure_bytes=max(16, dram_mb // 8) * 1024 * 1024,
    )


def default_platform_config() -> PlatformConfig:
    """The platform a system builder boots when given none: fast to
    boot, big enough for workloads."""
    return platform_for(256)
