"""Common plumbing for attack scenarios."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.hypernel import System


@dataclass
class AttackOutcome:
    """What happened when an attack was mounted.

    ``succeeded``
        The attacker-visible goal state was reached (e.g. the cred's uid
        really is 0 in memory, translation really goes to the rogue
        table).
    ``blocked``
        A protection mechanism refused the action outright (permission
        fault on the write, Hypersec denial, IOMMU fault).
    ``detected``
        Some monitor raised an alert attributable to the attack.
    """

    attack: str
    succeeded: bool
    blocked: bool
    detected: bool
    notes: List[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.notes.append(message)


def alert_count(system: System) -> int:
    """Total alerts across Hypersec and all registered monitors."""
    total = 0
    if system.hypersec is not None:
        total += sum(
            count
            for key, count in system.hypersec.stats.snapshot().items()
            if key.startswith("alert.")
        )
    for app in system.monitors:
        total += len(app.alerts)
    return total
