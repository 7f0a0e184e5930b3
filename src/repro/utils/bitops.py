"""Bit-manipulation helpers used across the hardware models.

All functions operate on arbitrary-precision Python integers but are
written against the fixed 64-bit word size of the simulated machine where
relevant.  Bit positions are numbered LSB = 0, matching the ARM ARM.
"""

from __future__ import annotations

from repro.errors import AlignmentError


def bit(position: int) -> int:
    """Return an integer with only ``position`` set (``1 << position``)."""
    if position < 0:
        raise ValueError(f"bit position must be non-negative, got {position}")
    return 1 << position


def mask(width: int) -> int:
    """Return a mask of ``width`` ones in the low bits."""
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bits(hi: int, lo: int) -> int:
    """Return a mask covering bit positions ``hi`` down to ``lo`` inclusive.

    Mirrors the ARM ARM's ``bits(hi:lo)`` field notation.
    """
    if hi < lo:
        raise ValueError(f"bits({hi}, {lo}): hi must be >= lo")
    return mask(hi - lo + 1) << lo


def is_aligned(value: int, alignment: int) -> bool:
    """True if ``value`` is a multiple of ``alignment`` (a power of two)."""
    return (value & (alignment - 1)) == 0


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment`` (power of two)."""
    return value & ~(alignment - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


def require_aligned(value: int, alignment: int, what: str = "address") -> None:
    """Raise :class:`AlignmentError` unless ``value`` is aligned."""
    if not is_aligned(value, alignment):
        raise AlignmentError(
            f"{what} {value:#x} is not {alignment}-byte aligned"
        )
