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

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import PlatformConfig, default_platform_config
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
    platform = Platform(platform_config or default_platform_config())
    cpu = CPUCore(platform)
    kcfg = kernel_config or KernelConfig(linear_map_mode="section")
    kernel = Kernel(platform, cpu, kcfg)
    kernel.boot()
    return System("native", platform, cpu, kernel)


def build_kvm_guest(
    platform_config: Optional[PlatformConfig] = None,
    kernel_config: Optional[KernelConfig] = None,
    prepopulate_stage2: bool = False,
) -> System:
    """The **KVM-guest** case: the same kernel under nested paging."""
    platform = Platform(platform_config or default_platform_config())
    cpu = CPUCore(platform)
    kvm = KvmHypervisor(platform, cpu)
    kvm.install()
    kcfg = kernel_config or KernelConfig(linear_map_mode="section")
    kernel = Kernel(platform, cpu, kcfg, env=KvmGuestEnvironment(cpu))
    kernel.boot()
    if prepopulate_stage2:
        kvm.prepopulate(kvm.guest_base, kvm.guest_limit)
    return System("kvm-guest", platform, cpu, kernel, kvm=kvm)


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
    platform = Platform(platform_config or default_platform_config())
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
