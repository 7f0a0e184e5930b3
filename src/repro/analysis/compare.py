"""Small numeric helpers for the evaluation harness."""

from __future__ import annotations

from typing import Iterable, Sequence


def overhead_percent(value: float, baseline: float) -> float:
    """Slowdown of ``value`` relative to ``baseline`` in percent."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (value / baseline - 1.0) * 100.0


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average (the paper reports arithmetic-average overheads)."""
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Fixed-width text table (right-aligned numeric-ish columns)."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row):
        return "  ".join(cell.rjust(width) if index else cell.ljust(width)
                         for index, (cell, width) in enumerate(zip(row, widths)))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
