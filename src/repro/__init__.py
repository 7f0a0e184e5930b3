"""Hypernel reproduction: hardware-assisted kernel protection without
nested paging (Kwon et al., DAC 2018) as a cycle-approximate
full-system simulation.

Quickstart::

    from repro import build_hypernel, CredIntegrityMonitor

    system = build_hypernel(monitors=[CredIntegrityMonitor()])
    init = system.spawn_init()
    # ... drive the kernel, mount attacks, read monitor alerts ...

The three evaluation configurations are built with
:func:`build_native`, :func:`build_kvm_guest` and :func:`build_hypernel`;
the paper's tables/figures are regenerated by
:func:`repro.analysis.run_table1`, :func:`repro.analysis.run_figure6`
and :func:`repro.analysis.run_table2` (see ``benchmarks/``).
"""

from repro.utils.lazy import lazy_exports

#: public name -> the module that defines it.  Names resolve on first
#: access (PEP 562), so ``python -m repro`` and a cache-served table
#: never import the simulator they do not run (DESIGN.md §5b).
_EXPORTS = {
    "CostModel": "repro.config",
    "PlatformConfig": "repro.config",
    "juno_r1": "repro.config",
    "System": "repro.core.hypernel",
    "build_hypernel": "repro.core.hypernel",
    "build_kvm_guest": "repro.core.hypernel",
    "build_native": "repro.core.hypernel",
    "build_system": "repro.core.hypernel",
    "Hypersec": "repro.core.hypersec",
    "MemoryBusMonitor": "repro.core.mbm",
    "ArchFault": "repro.errors",
    "SecurityViolation": "repro.errors",
    "SimulationError": "repro.errors",
    "Kernel": "repro.kernel",
    "KernelConfig": "repro.kernel",
    "CredIntegrityMonitor": "repro.security",
    "DentryIntegrityMonitor": "repro.security",
    "ExternalOnlyMonitor": "repro.security",
    "SecurityApp": "repro.security",
    "WholeObjectMonitor": "repro.security",
}

__version__ = "1.2.0"

__all__ = [
    "ArchFault",
    "CostModel",
    "CredIntegrityMonitor",
    "DentryIntegrityMonitor",
    "ExternalOnlyMonitor",
    "Hypersec",
    "Kernel",
    "KernelConfig",
    "MemoryBusMonitor",
    "PlatformConfig",
    "SecurityApp",
    "SecurityViolation",
    "SimulationError",
    "System",
    "WholeObjectMonitor",
    "build_hypernel",
    "build_kvm_guest",
    "build_native",
    "build_system",
    "juno_r1",
]


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
