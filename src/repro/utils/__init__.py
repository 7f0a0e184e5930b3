"""Shared low-level helpers: bit manipulation, statistics, event hooks."""

from repro.utils.bitops import (
    align_down,
    align_up,
    bit,
    bits,
    is_aligned,
    mask,
)
from repro.utils.events import EventHook
from repro.utils.stats import StatSet

__all__ = [
    "EventHook",
    "StatSet",
    "align_down",
    "align_up",
    "bit",
    "bits",
    "is_aligned",
    "mask",
]
