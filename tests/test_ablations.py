"""Ablations A-D (EXPERIMENTS.md): each design choice's measured effect.

Every ablation runs on the same machine as the paper's tables: 192 MB
simulated DRAM with a 24 MB secure region, application workloads at
scale 0.25.  Each test checks the *shape* the paper argues for and pins
the exact simulated counts, so a model change that moves any of them
is seen here rather than discovered in a stale document.

* **A** (paper section 6.3): the MBM bitmap cache absorbs almost every
  bitmap lookup of an untar run, with identical detections.
* **B** (section 6.2): a 2 MB-section linear map makes Hypersec
  emulate tens of thousands of collateral writes; 4 KB pages need none.
* **C** (sections 1 and 5.2): nested paging multiplies descriptor
  fetches on a TLB-thrashing pointer chase and never beats one stage.
* **D** (extension of Figure 4): coalescing MBM interrupts keeps every
  detection and cuts the monitored run's cost.
"""

import random

from repro.arch.cpu import CPUCore
from repro.arch.pagetable import KERNEL_VA_BASE
from repro.arch.registers import HCR_VM, SCTLR_M
from repro.config import PAGE_BYTES, PlatformConfig
from repro.core.hypernel import build_hypernel
from repro.hw.platform import Platform
from repro.kernel.kernel import KernelConfig
from repro.security import (
    CredIntegrityMonitor,
    DentryIntegrityMonitor,
    WholeObjectMonitor,
)
from repro.workloads.apps import UntarWorkload
from tests.helpers import TableBuilder

DRAM_MB = 192
SCALE = 0.25


def _platform_config():
    return PlatformConfig(
        dram_bytes=DRAM_MB * 1024 * 1024,
        secure_bytes=max(16, DRAM_MB // 8) * 1024 * 1024,
    )


# ----------------------------------------------------------------------
# Ablation A: the MBM bitmap cache
# ----------------------------------------------------------------------
def _bitmap_cache_run(enabled):
    system = build_hypernel(
        platform_config=_platform_config(),
        monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
        bitmap_cache_enabled=enabled,
    )
    shell = system.spawn_init()
    app = UntarWorkload(SCALE)
    app.prepare(system, shell)
    app.run(system, shell)
    return {
        "events": system.mbm.events_detected,
        "checked": system.mbm.decision.stats.get("checked"),
        "dram_fetches": system.mbm.translator.stats.get("dram_fetches"),
        "busy_cycles": system.mbm.busy_cycles,
        "cache_hits": system.mbm.bitmap_cache.stats.get("hits"),
    }


#: ``(with cache, without cache)``.
PINNED_A = (
    {"events": 659, "checked": 14493, "dram_fetches": 50,
     "busy_cycles": 64376, "cache_hits": 14445},
    {"events": 659, "checked": 14493, "dram_fetches": 14495,
     "busy_cycles": 1913336, "cache_hits": 0},
)


def test_ablation_a_bitmap_cache():
    with_cache = _bitmap_cache_run(True)
    without_cache = _bitmap_cache_run(False)
    # Same detections either way; far less DRAM traffic with the cache.
    assert with_cache["events"] == without_cache["events"]
    assert without_cache["dram_fetches"] / with_cache["dram_fetches"] > 5.0
    assert with_cache["busy_cycles"] < without_cache["busy_cycles"]
    assert (with_cache, without_cache) == PINNED_A


# ----------------------------------------------------------------------
# Ablation B: 4 KB-page vs 2 MB-section linear map
# ----------------------------------------------------------------------
def _drive_forks_and_files(system, forks=6, files=20):
    kernel = system.kernel
    init = system.spawn_init()
    kernel.vfs.mkdir_p("/tmp")
    start = system.now
    for index in range(files):
        path = f"/tmp/f{index}"
        kernel.sys.creat(init, path)
        handle = kernel.sys.open(init, path)
        kernel.sys.write(init, handle, 4096)
        kernel.sys.close(init, handle)
    for _ in range(forks):
        child = kernel.sys.fork(init)
        kernel.procs.context_switch(child)
        kernel.sys.exit(child)
        kernel.procs.context_switch(init)
        kernel.sys.wait(init)
    return system.now - start


def _granularity_run(mode):
    system = build_hypernel(
        platform_config=_platform_config(),
        kernel_config=KernelConfig(linear_map_mode=mode),
        with_mbm=False,
    )
    cycles = _drive_forks_and_files(system)
    return {
        "cycles": cycles,
        "gap_faults": system.kernel.stats.get("granularity_gap_faults"),
        "emulated_writes": system.hypersec.stats.get("gap_emulated_writes"),
        "gap_sections": len(system.hypersec.gap_sections),
    }


#: ``(4 KB pages, 2 MB sections)``.
PINNED_B = (
    {"cycles": 2195504, "gap_faults": 0, "emulated_writes": 0,
     "gap_sections": 0},
    {"cycles": 49546453, "gap_faults": 57790, "emulated_writes": 57790,
     "gap_sections": 2},
)


def test_ablation_b_linear_map_granularity():
    page = _granularity_run("page")
    section = _granularity_run("section")
    assert page["gap_faults"] == 0          # exact protection, no gap
    assert section["gap_faults"] > 1000     # the gap is severe
    assert section["cycles"] / page["cycles"] > 1.5
    assert (page, section) == PINNED_B


# ----------------------------------------------------------------------
# Ablation C: nested-walk cost
# ----------------------------------------------------------------------
CHASE_PAGES = 1024     #: working set (2x the 512-entry stage-1 TLB)
CHASE_ACCESSES = 3000


def _chase_machine(nested, stage2_tlb_entries):
    config = _platform_config()
    config.stage2_tlb_entries = stage2_tlb_entries
    platform = Platform(config)
    cpu = CPUCore(platform)
    base = config.dram_base
    s1 = TableBuilder(platform, base + 0x100_0000)
    for index in range(CHASE_PAGES):
        s1.map_page(KERNEL_VA_BASE + index * PAGE_BYTES,
                    base + 0x800_0000 + index * PAGE_BYTES)
    cpu.regs.write("TTBR1_EL1", s1.root)
    cpu.regs.set_bits("SCTLR_EL1", SCTLR_M)
    if nested:
        s2 = TableBuilder(platform, base + 0x400_0000)
        # Identity stage-2 for the tables and the data pages.
        for index in range(0x100_0000 // PAGE_BYTES):
            pa = base + 0x100_0000 + index * PAGE_BYTES
            s2.map_page(pa, pa)
            if index < CHASE_PAGES:
                data = base + 0x800_0000 + index * PAGE_BYTES
                s2.map_page(data, data)
        cpu.regs.write("VTTBR_EL2", s2.root)
        cpu.regs.set_bits("HCR_EL2", HCR_VM)
    return platform, cpu


def _chase_run(nested, stage2_tlb_entries, seed=7):
    """``(cycles, descriptor fetches)`` of the measured pointer chase."""
    platform, cpu = _chase_machine(nested, stage2_tlb_entries)
    rng = random.Random(seed)
    order = [rng.randrange(CHASE_PAGES) for _ in range(CHASE_ACCESSES)]
    # Warm the data caches (one line per page fits easily in L2) so the
    # measured loop isolates the *translation* cost: the TLB working set
    # still exceeds the 512-entry TLB, so almost every access walks.
    for page_index in range(CHASE_PAGES):
        cpu.read(KERNEL_VA_BASE + page_index * PAGE_BYTES + 0x40)
    start = platform.clock.now
    for page_index in order:
        cpu.read(KERNEL_VA_BASE + page_index * PAGE_BYTES + 0x40)
    return (platform.clock.now - start,
            cpu.mmu.stats.get("stage1_desc_fetches")
            + cpu.mmu.stats.get("stage2_desc_fetches"))


#: Regime -> ``(cycles over the chase, descriptor fetches)``.
PINNED_C = {
    "1-stage": (281035, 7530),
    "2-stage/s2tlb=16": (352599, 22449),
    "2-stage/s2tlb=64": (337947, 19725),
    "2-stage/s2tlb=256": (324051, 17475),
    "2-stage/s2tlb=1024": (281937, 10665),
}


def test_ablation_c_nested_walk_cost():
    results = {"1-stage": _chase_run(False, 64)}
    for entries in (16, 64, 256, 1024):
        results[f"2-stage/s2tlb={entries}"] = _chase_run(True, entries)
    one_stage, one_stage_fetches = results["1-stage"]
    worst, worst_fetches = results["2-stage/s2tlb=16"]
    best_nested = results["2-stage/s2tlb=1024"][0]
    # Nested paging always costs more; a small stage-2 TLB hurts most,
    # and the descriptor-fetch counts expose the 2-stage blow-up.
    assert worst > best_nested >= one_stage * 0.99
    assert worst / one_stage > 1.15
    assert worst_fetches / one_stage_fetches > 2.0
    assert results == PINNED_C


# ----------------------------------------------------------------------
# Ablation D: MBM interrupt coalescing
# ----------------------------------------------------------------------
def _irq_run(irq_coalesce):
    system = build_hypernel(
        platform_config=_platform_config(),
        monitors=[WholeObjectMonitor(("cred", "dentry"))],
        irq_coalesce=irq_coalesce,
    )
    shell = system.spawn_init()
    app = UntarWorkload(SCALE)
    app.prepare(system, shell)
    start = system.now
    app.run(system, shell)
    system.mbm.flush_events()
    return {
        "cycles": system.now - start,
        "events": system.mbm.events_detected,
        "irqs": system.mbm.stats.get("irqs_raised"),
        "dispatched": system.hypersec.stats.get("mbm_events_dispatched"),
    }


#: Interrupt batch -> counts.
PINNED_D = {
    1: {"cycles": 18303143, "events": 12671, "irqs": 12671,
        "dispatched": 12671},
    8: {"cycles": 8920353, "events": 12671, "irqs": 1584,
        "dispatched": 12671},
    32: {"cycles": 7918483, "events": 12671, "irqs": 396,
         "dispatched": 12671},
}


def test_ablation_d_irq_coalescing():
    results = {batch: _irq_run(batch) for batch in (1, 8, 32)}
    base, batched = results[1], results[32]
    # No event is ever lost; interrupts drop roughly by the batch factor.
    for data in results.values():
        assert data["dispatched"] == data["events"]
    assert batched["irqs"] < base["irqs"] / 8
    assert batched["cycles"] < base["cycles"]
    assert results == PINNED_D
