"""Removed machine restore; only a raising stub is left.

A machine image holds audit evidence, not a machine: the offline
checker captures it in memory
(:func:`repro.security.fuzz.snapshot_checker.capture_snapshot`), and
code that needs a copy of a live machine pickles it in memory (the
fuzzer does, see :mod:`repro.security.fuzz.machine`).
"""

from __future__ import annotations

from repro.errors import SnapshotError


def restore_system(*args, **kwargs):
    """Removed: a snapshot holds audit evidence, not a whole machine.

    This stub exists only because ``benchmarks/e2e/traced.py`` wraps
    ``repro.state.restore_system`` for its ``state.restore`` span.  The
    next change to the benchmark harness drops that wrap and then
    deletes this stub.  Nothing in ``src/`` calls it.
    """
    raise SnapshotError("snapshots hold audit evidence only and cannot "
                        "be restored into a machine")
