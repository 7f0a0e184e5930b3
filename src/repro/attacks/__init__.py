"""Attack scenarios for validating the security claims.

Each attack models an adversary who, per the paper's threat model
(section 4), "could successfully exploit any existing kernel
vulnerabilities to alter the kernel memory" — i.e. has arbitrary
read/write at kernel privilege and can execute privileged instructions
— but cannot break secure boot, EL2 or physical isolation.

Every scenario runs against any system configuration and reports an
:class:`~repro.attacks.base.AttackOutcome` (did the state change? was it
blocked? was it detected?), so the test suite can assert the exact
protection matrix the paper claims:

========================  ========  ==========  =================
attack                     native    hypernel    external-only MBM
========================  ========  ==========  =================
cred escalation            success   detected    detected
dentry hijack              success   detected    detected
page-table tamper          success   blocked     success
TTBR switch                success   blocked     success
MMU disable                success   blocked     success
ATRA                       success   blocked     **bypassed**
DMA into secure region     success   detected*   n/a
========================  ========  ==========  =================

(*) via the MBM's bus-level tamper watch; fully *prevented* when the
IOMMU extension is enabled (paper Discussion section).

:func:`run_attack_matrix` mounts a list of scenarios on a native and a
Hypernel system; ``python -m repro attacks`` and the evaluation report
both run their matrices through it.
"""

from typing import Dict, List, Optional, Sequence

from repro.attacks.atra import AtraAttack
from repro.attacks.base import AttackOutcome
from repro.attacks.dma import DmaAttack
from repro.attacks.pgtable import (
    HypercallAbuseAttack,
    MmuDisableAttack,
    PageTableTamperAttack,
    TtbrSwitchAttack,
)
from repro.attacks.rootkit import CredEscalationAttack, DentryHijackAttack
from repro.config import PlatformConfig
from repro.core.hypernel import build_hypernel, build_native
from repro.kernel.kernel import KernelConfig

#: Translation-machinery attacks the hypercall fuzzer mounts as rules:
#: safe to repeat any number of times against a protected system (each
#: restores the registers it touched), and all of them must come back
#: ``blocked`` under Hypernel.  Keyed by the attack's ``name``.
FUZZABLE_ATTACKS = {
    attack.name: attack
    for attack in (
        HypercallAbuseAttack,
        MmuDisableAttack,
        PageTableTamperAttack,
        TtbrSwitchAttack,
    )
}

#: The file the matrix's victim creates and the dentry hijack retargets.
VICTIM_PATH = "/etc/passwd"


def run_attack_matrix(
    attacks: Sequence[type],
    platform_config: Optional[PlatformConfig] = None,
) -> Dict[str, List[AttackOutcome]]:
    """Mount each attack class, in order, on one native system (4 KB
    linear map), then on one monitored Hypernel system.

    Each system gets an unprivileged (uid 1000) victim task that owns
    ``VICTIM_PATH``.  The attacks on a system share it, so order
    matters.  Returns ``{"native": [...], "hypernel": [...]}``.
    """
    from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor

    builders = {
        "native": lambda: build_native(
            platform_config=platform_config,
            kernel_config=KernelConfig(linear_map_mode="page"),
        ),
        "hypernel": lambda: build_hypernel(
            platform_config=platform_config,
            monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
        ),
    }
    outcomes: Dict[str, List[AttackOutcome]] = {}
    for name, build in builders.items():
        system = build()
        kernel = system.kernel
        victim = kernel.sys.fork(system.spawn_init())
        kernel.procs.context_switch(victim)
        kernel.sys.setuid(victim, 1000)
        kernel.vfs.mkdir_p("/etc")
        kernel.sys.creat(victim, VICTIM_PATH)
        outcomes[name] = []
        for attack_class in attacks:
            attack = attack_class()
            if isinstance(attack, (CredEscalationAttack, AtraAttack)):
                outcome = attack.mount(system, victim)
            elif isinstance(attack, DentryHijackAttack):
                outcome = attack.mount(system, VICTIM_PATH)
            else:
                outcome = attack.mount(system)
            outcomes[name].append(outcome)
    return outcomes


__all__ = [
    "AtraAttack",
    "AttackOutcome",
    "CredEscalationAttack",
    "DentryHijackAttack",
    "DmaAttack",
    "FUZZABLE_ATTACKS",
    "HypercallAbuseAttack",
    "MmuDisableAttack",
    "PageTableTamperAttack",
    "TtbrSwitchAttack",
    "run_attack_matrix",
]
