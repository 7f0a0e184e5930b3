"""Security applications hosted in Hypernel's secure space.

The paper evaluates "a security solution which monitors sensitive
kernel data" on top of Hypernel (section 7.2); this package provides:

* :class:`~repro.security.app.SecurityApp` — the application interface
  (SID, region templates, event callback);
* :class:`~repro.security.hooks.MonitorHookStub` — the kernel-side hook
  patch that reports object allocation/free to Hypersec;
* :class:`~repro.security.cred_monitor.CredIntegrityMonitor` and
  :class:`~repro.security.dentry_monitor.DentryIntegrityMonitor` — the
  word-granularity monitors of Table 2;
* :class:`~repro.security.baseline_page.WholeObjectMonitor` — the
  whole-object monitor the paper uses to *estimate* page-granularity
  trap counts (section 7.2's methodology);
* :class:`~repro.security.external_only.ExternalOnlyMonitor` — a
  KI-Mon-like bus monitor used *without* Hypersec, reproducing the ATRA
  weakness of stand-alone external monitors (sections 2 and 5.3).
"""

from repro.security.app import SecurityApp
from repro.security.baseline_page import WholeObjectMonitor
from repro.security.cred_monitor import CredIntegrityMonitor
from repro.security.dentry_monitor import DentryIntegrityMonitor
from repro.security.external_only import ExternalOnlyMonitor
from repro.security.hooks import MonitorHookStub

__all__ = [
    "CredIntegrityMonitor",
    "DentryIntegrityMonitor",
    "ExternalOnlyMonitor",
    "MonitorHookStub",
    "SecurityApp",
    "WholeObjectMonitor",
]
