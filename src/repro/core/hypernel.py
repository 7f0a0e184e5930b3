"""System builders: the three experimental configurations of section 7.

* :func:`build_native` — the base kernel, nothing at EL2.
* :func:`build_kvm_guest` — the kernel inside a KVM-style VM: stage-2
  translation (nested paging), demand faults, world-switch costs.
* :func:`build_hypernel` — the kernel under Hypernel: Hypersec at EL2
  (no stage 2), hypercall-verified page tables, TVM traps, and
  optionally the MBM plus security applications.

Each builder returns a :class:`System` handle bundling every component
the workloads and benchmarks need.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import PlatformConfig
from repro.hw.platform import Platform
from repro.arch.cpu import CPUCore
from repro.core.hypersec import Hypersec
from repro.core.mbm.mbm import MemoryBusMonitor
from repro.hypervisor.kvm import KvmHypervisor
from repro.kernel.env import ExecutionEnvironment, KvmGuestEnvironment
from repro.kernel.irq import MbmIrqStub
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.pgtable_mgmt import HypercallPgTableWriter
from repro.kernel.process import Task
from repro.security.app import SecurityApp
from repro.security.hooks import MonitorHookStub


def _default_platform_config() -> PlatformConfig:
    """A mid-sized platform: fast to boot, big enough for workloads."""
    return PlatformConfig(
        dram_bytes=256 * 1024 * 1024,
        secure_bytes=32 * 1024 * 1024,
    )


def _build_recipe(
    name: str,
    kernel_config: KernelConfig,
    monitors: Optional[List[SecurityApp]] = None,
    **kwargs: Any,
) -> Dict[str, Any]:
    """A JSON description of how this system was built (everything
    except the :class:`PlatformConfig`, which the snapshot manifest
    carries in its cost fingerprint)."""
    return {
        "system": name,
        "kwargs": kwargs,
        "kernel_config": {
            "linear_map_mode": kernel_config.linear_map_mode,
            "image_reserve_bytes": kernel_config.image_reserve_bytes,
            "op_costs": dataclasses.asdict(kernel_config.op_costs),
        },
        "monitors": [{"class": type(app).__name__}
                     for app in monitors or []],
    }


@dataclass
class System:
    """One assembled machine + kernel (+ optional EL2 residents)."""

    name: str
    platform: Platform
    cpu: CPUCore
    kernel: Kernel
    hypersec: Optional[Hypersec] = None
    mbm: Optional[MemoryBusMonitor] = None
    kvm: Optional[KvmHypervisor] = None
    hooks: Optional[MonitorHookStub] = None
    monitors: List[SecurityApp] = field(default_factory=list)
    #: how this system was built (recorded in repro.state snapshots).
    recipe: Dict[str, Any] = field(default_factory=dict)

    def spawn_init(self) -> Task:
        """Create and fault in the first process."""
        return self.kernel.procs.spawn_init()

    def cycles_to_us(self, cycles: int) -> float:
        return self.platform.config.cycles_to_us(cycles)

    @property
    def now(self) -> int:
        return self.platform.clock.now

    def monitor_by_name(self, name: str) -> SecurityApp:
        for app in self.monitors:
            if app.name == name:
                return app
        raise KeyError(f"no monitor named {name!r} on system {self.name}")

    def stats_summary(self) -> Dict[str, int]:
        """Headline counters for reports and debugging."""
        summary = {
            "cycles": self.now,
            "tlb_misses": self.cpu.mmu.tlb.stats.get("misses"),
            "stage1_walks": self.cpu.mmu.stats.get("stage1_walks"),
            "stage2_desc_fetches": self.cpu.mmu.stats.get("stage2_desc_fetches"),
            "vm_exits": self.cpu.stats.get("vm_exits"),
            "hypercalls": self.cpu.stats.get("hvc"),
            "trapped_msr": self.cpu.stats.get("trapped_msr"),
        }
        if self.mbm is not None:
            summary["mbm_events"] = self.mbm.events_detected
        return summary

    def count_accesses(self) -> int:
        """Simulated memory accesses performed so far on this system.

        Counts CPU word/block accesses plus the DRAM-level traffic the cache
        hierarchy generated; the exact composition matters less than its
        determinism — the same workload must always produce the same count.

        Observability reads (:func:`repro.obs.collect_metrics`) never show
        up here: StatSet reads, gauge derivation and ``bus.peek`` generate
        no bus transactions, so a payload's access count is byte-identical
        whether or not metrics were collected alongside it.
        """
        cpu = self.cpu.stats
        bus = self.platform.bus.stats
        return (
            cpu.get("reads")
            + cpu.get("writes")
            + cpu.get("block_read_words")
            + cpu.get("block_write_words")
            + bus.get("reads")
            + bus.get("writes")
            + bus.get("line_fills")
            + bus.get("writebacks")
        )


def build_native(
    platform_config: Optional[PlatformConfig] = None,
    kernel_config: Optional[KernelConfig] = None,
) -> System:
    """The **Native** case: base kernel, vanilla 2 MB-section map."""
    platform = Platform(platform_config or _default_platform_config())
    cpu = CPUCore(platform)
    kcfg = kernel_config or KernelConfig(linear_map_mode="section")
    kernel = Kernel(platform, cpu, kcfg)
    kernel.boot()
    return System("native", platform, cpu, kernel,
                  recipe=_build_recipe("native", kcfg))


def build_kvm_guest(
    platform_config: Optional[PlatformConfig] = None,
    kernel_config: Optional[KernelConfig] = None,
    prepopulate_stage2: bool = False,
) -> System:
    """The **KVM-guest** case: the same kernel under nested paging."""
    platform = Platform(platform_config or _default_platform_config())
    cpu = CPUCore(platform)
    kvm = KvmHypervisor(platform, cpu)
    kvm.install()
    kcfg = kernel_config or KernelConfig(linear_map_mode="section")
    kernel = Kernel(platform, cpu, kcfg, env=KvmGuestEnvironment(cpu))
    kernel.boot()
    if prepopulate_stage2:
        kvm.prepopulate(kvm.guest_base, kvm.guest_limit)
    return System("kvm-guest", platform, cpu, kernel, kvm=kvm,
                  recipe=_build_recipe("kvm-guest", kcfg,
                                       prepopulate_stage2=prepopulate_stage2))


def build_hypernel(
    platform_config: Optional[PlatformConfig] = None,
    kernel_config: Optional[KernelConfig] = None,
    with_mbm: bool = True,
    monitors: Optional[List[SecurityApp]] = None,
    bitmap_cache_enabled: bool = True,
    irq_coalesce: int = 1,
) -> System:
    """The **Hypernel** case: Hypersec (+ MBM and monitors if requested).

    The performance experiments of paper 7.1 ran with only Hypersec
    active (``with_mbm=False`` matches that exactly); the monitoring
    experiments of 7.2 add the MBM and the security applications.
    """
    platform = Platform(platform_config or _default_platform_config())
    cpu = CPUCore(platform)
    mbm = None
    if with_mbm:
        mbm = MemoryBusMonitor(
            platform,
            bitmap_cache_enabled=bitmap_cache_enabled,
            irq_coalesce=irq_coalesce,
        )
        mbm.attach()
    hypersec = Hypersec(platform, cpu, mbm)
    hypersec.install()
    kcfg = kernel_config or KernelConfig(linear_map_mode="page")
    kernel = Kernel(
        platform,
        cpu,
        kcfg,
        pgwriter=HypercallPgTableWriter(cpu),
        env=ExecutionEnvironment(cpu),
    )
    kernel.boot()
    hypersec.protect(kernel)
    system = System(
        "hypernel", platform, cpu, kernel, hypersec=hypersec, mbm=mbm,
        recipe=_build_recipe("hypernel", kcfg, monitors=monitors,
                             with_mbm=with_mbm,
                             bitmap_cache_enabled=bitmap_cache_enabled,
                             irq_coalesce=irq_coalesce),
    )
    if with_mbm:
        MbmIrqStub(kernel).install()
        hooks = MonitorHookStub(kernel)
        hooks.install()
        system.hooks = hooks
        for app in monitors or []:
            hypersec.register_app(app)
            hooks.add_app(app)
            system.monitors.append(app)
    return system


_BUILDERS = {
    "native": build_native,
    "kvm-guest": build_kvm_guest,
    "hypernel": build_hypernel,
}


def build_system(name: str, **kwargs) -> System:
    """Build a configuration by name: native / kvm-guest / hypernel."""
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown system {name!r}; choose from {sorted(_BUILDERS)}"
        )
    return _BUILDERS[name](**kwargs)
