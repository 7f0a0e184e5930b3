"""Credential integrity monitor (word granularity).

The first of the paper's two evaluated monitors (section 7.2, footnote
2: "Modifying the cred structure allows the attacker to elevate any
process to have root permission").  It registers only the *sensitive
fields* of every live ``cred`` object — uid/gid family, securebits and
capability masks — so the hot ``usage`` refcount word generates no
events at all.

Detection policy on top of the generic shadow check: any unannounced
transition of an identity word *to* 0 (root) is flagged as privilege
escalation explicitly.
"""

from __future__ import annotations

from repro.kernel.objects import CRED
from repro.security.app import RegionTemplate, SecurityApp

#: word offsets (within cred) of the identity fields whose change to 0
#: means privilege escalation.
_IDENTITY_OFFSETS = {
    CRED.field(name).offset
    for name in ("uid", "gid", "suid", "sgid", "euid", "egid", "fsuid", "fsgid")
}


class CredIntegrityMonitor(SecurityApp):
    """Watches the sensitive words of every cred object."""

    def __init__(self):
        super().__init__(
            "cred_monitor",
            [RegionTemplate("cred", coverage="sensitive")],
        )
        self._bases = {}

    def on_region_registered(self, base, size, snapshot):
        super().on_region_registered(base, size, snapshot)
        self._bases[base] = size

    def on_region_unregistered(self, base, size):
        super().on_region_unregistered(base, size)
        self._bases.pop(base, None)

    def on_event(self, addr: int, value: int) -> None:
        expected = self._shadow.get(addr)
        alerts_before = len(self.alerts)
        super().on_event(addr, value)
        if len(self.alerts) == alerts_before:
            return  # the event paired with an announced write
        # Escalation heuristic: identity word became root without an
        # announced kernel update.
        offset_in_obj = self._offset_within_object(addr)
        if offset_in_obj in _IDENTITY_OFFSETS and value == 0 and expected != 0:
            self.alert(addr, observed=value, expected=expected,
                       reason="privilege escalation to uid/gid 0")

    def _offset_within_object(self, addr: int):
        for base in self._bases:
            # Sensitive cred words span [base, base+size) of one range
            # beginning at the uid field.
            obj_base = base - CRED.field("uid").byte_offset
            delta = addr - obj_base
            if 0 <= delta < CRED.size_bytes:
                return delta // 8
        return None
