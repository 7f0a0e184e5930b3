"""Sensitivity of Table 1's ordering to the calibrated transition costs.

DESIGN.md section 5 names the cost constants that are calibrated rather
than taken from the architecture.  This sweep scales the hypercall
round trip, the KVM world switch and the EL2 trap by 0.5x or 2x and
re-measures the fork+exit row of Table 1 on the tables' machine (192 MB
DRAM, 24 MB secure).  The headline ordering Native < Hypernel < KVM
holds on every row up to hypercalls at 1.85x their calibrated cost; at
2x, a hypercall-heavy fork+exit makes Hypernel slower than KVM.  Both
facts are asserted, and every count is pinned so that EXPERIMENTS.md
can quote them (``tests/test_experiments_doc.py``).
"""

import pytest

from repro.config import PlatformConfig
from repro.core.hypernel import build_system
from repro.workloads.lmbench import LmbenchSuite

#: Row label -> ``(cost fields scaled, factor)``; ``None`` = calibrated.
PERTURBATIONS = {
    "baseline": None,
    "hvc x0.5": (("hvc_entry", "hvc_exit"), 0.5),
    "hvc x1.85": (("hvc_entry", "hvc_exit"), 1.85),
    "hvc x2": (("hvc_entry", "hvc_exit"), 2.0),
    "vmexit x0.5": (("vm_exit", "vm_enter"), 0.5),
    "vmexit x2": (("vm_exit", "vm_enter"), 2.0),
    "trap x2": (("trap_entry", "trap_exit"), 2.0),
}

#: The one row where the ordering is inverted (Hypernel > KVM).
INVERTED = {"hvc x2"}

SYSTEMS = ("native", "hypernel", "kvm-guest")

#: Row label -> fork+exit cycles per iteration, in ``SYSTEMS`` order.
PINNED = {
    "baseline": (308398, 347428, 372798),
    "hvc x0.5": (308398, 333268, 372798),
    "hvc x1.85": (308398, 371500, 372798),
    "hvc x2": (308398, 375748, 372798),
    "vmexit x0.5": (308398, 347428, 359998),
    "vmexit x2": (308398, 347428, 398398),
    "trap x2": (308398, 348628, 372798),
}


def _platform_config(perturbation):
    config = PlatformConfig(dram_bytes=192 * 1024 * 1024,
                            secure_bytes=24 * 1024 * 1024)
    if perturbation is not None:
        names, factor = perturbation
        for name in names:
            setattr(config.costs, name,
                    int(getattr(config.costs, name) * factor))
    return config


def fork_exit_us(cycles):
    """A pinned count in µs, as EXPERIMENTS.md quotes it."""
    return _platform_config(None).cycles_to_us(cycles)


def fork_exit_cycles(system_name, perturbation):
    """Cycles per fork+exit, as Table 1's LMbench suite measures it."""
    config = _platform_config(perturbation)
    kwargs = {"platform_config": config}
    if system_name == "hypernel":
        kwargs["with_mbm"] = False
    if system_name == "kvm-guest":
        kwargs["prepopulate_stage2"] = True
    suite = LmbenchSuite(build_system(system_name, **kwargs),
                         warmup=3, iterations=8)
    suite.setup()
    microseconds = suite.run_op("fork+exit").microseconds
    cycles = round(microseconds * config.cpu_freq_hz / 1e6)
    assert config.cycles_to_us(cycles) == microseconds
    return cycles


@pytest.mark.parametrize("label", list(PERTURBATIONS))
def test_fork_exit_ordering(label):
    row = tuple(fork_exit_cycles(name, PERTURBATIONS[label])
                for name in SYSTEMS)
    native, hypernel, kvm = row
    if label in INVERTED:
        assert native < kvm < hypernel
    else:
        assert native < hypernel < kvm
    assert row == PINNED[label]
