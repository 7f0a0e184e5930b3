"""EXPERIMENTS.md must quote the numbers the CLI actually prints.

Every simulated number in its Table 1, Figure 6 and Table 2 sections —
the ``(sim)`` table columns and the bold averages below each table —
has to appear in the recorded stdout of ``python -m repro table1`` /
``table2`` / ``report`` (``benchmarks/e2e/expected/*.txt``, read only;
for Figure 6, the report's Figure 6 section).  A model change that
moves a number fails here until the document is regenerated from the
CLI.  The ablation A-D and sensitivity tables must quote the exact
counts ``tests/test_ablations.py`` and ``tests/test_sensitivity.py``
pin.
"""

import re
from pathlib import Path

import pytest

from tests import test_ablations as ablations
from tests import test_sensitivity as sensitivity

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
EXPECTED = ROOT / "benchmarks" / "e2e" / "expected"

#: A number as either file writes it: optional sign, digits with
#: optional thousands commas, optional decimals, optional percent.
NUMBER = re.compile(r"[+-]?\d[\d,]*(?:\.\d+)?%?")


def _numbers(text):
    return [token.replace(",", "") for token in NUMBER.findall(text)]


def _section(heading, text=None):
    """The ``## heading`` section of EXPERIMENTS.md (or of ``text``)."""
    if text is None:
        text = EXPERIMENTS.read_text(encoding="utf-8")
    start = text.index(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else None]


def _simulated_numbers(section):
    """``(table cells, bold numbers)``: every number in the ``(sim)``
    columns, one list per row, and every number in bold text."""
    rows = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    sim_columns = [i for i, name in enumerate(header) if "(sim)" in name]
    table = []
    for row in rows[2:]:  # skip the header and the |---| separator
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        table.append([number for column in sim_columns
                      for number in _numbers(cells[column])])
    bold = [number
            for text in re.findall(r"\*\*(.+?)\*\*", section, flags=re.S)
            for number in _numbers(text)]
    return table, bold


#: How many ``(sim)`` columns each section's table quotes.
SIM_COLUMNS = {"Table 1": 3, "Table 2": 3, "Figure 6": 2}


@pytest.mark.parametrize("heading, golden, rows", [
    ("Table 1", "table1.txt", 9),   # LMbench ops x three systems
    ("Table 2", "table2.txt", 5),   # applications x page/word/ratio
    ("Figure 6", "report.txt", 5),  # applications x kvm-guest/hypernel
])
def test_simulated_numbers_match_cli_golden(heading, golden, rows):
    printed = (EXPECTED / golden).read_text(encoding="utf-8")
    if golden == "report.txt":  # the report holds every artifact
        printed = _section(heading, printed)
    printed = set(_numbers(printed))
    table, bold = _simulated_numbers(_section(heading))
    # Guard against a vacuous pass: a full table and a bold average.
    assert [len(row) for row in table] == [SIM_COLUMNS[heading]] * rows
    assert bold, "no bold average found"
    quoted = [number for row in table for number in row] + bold
    stale = [number for number in quoted if number not in printed]
    assert stale == [], (
        f"EXPERIMENTS.md {heading} quotes numbers the CLI no longer "
        f"prints: {stale}; regenerate it from `python -m repro "
        f"{golden[:-4]}`")


def _pinned_ablation_numbers():
    """Every count ``tests/test_ablations.py`` pins, as EXPERIMENTS.md
    writes it; Ablation C also as cycles per access."""
    values = {
        "Ablation A": [value for run in ablations.PINNED_A
                       for value in run.values()],
        "Ablation B": [value for run in ablations.PINNED_B
                       for value in run.values()],
        "Ablation C": [value for cycles, fetches in ablations.PINNED_C.values()
                       for value in (fetches,
                                     f"{cycles / ablations.CHASE_ACCESSES:.1f}")],
        "Ablation D": [value for run in ablations.PINNED_D.values()
                       for value in run.values()],
    }
    return {heading: {str(value) for value in numbers}
            for heading, numbers in values.items()}


@pytest.mark.parametrize("heading", [
    "Ablation A", "Ablation B", "Ablation C", "Ablation D",
])
def test_ablation_tables_match_pinned_counts(heading):
    """Every number in an ablation table's measured columns is one the
    ablation test pins."""
    pinned = _pinned_ablation_numbers()[heading]
    rows = [line for line in _section(heading).splitlines()
            if line.startswith("|")]
    quoted = [number for row in rows[2:]
              for cell in row.strip("|").split("|")[1:]
              for number in _numbers(cell)]
    assert len(quoted) >= 6, "no ablation table found"
    stale = [number for number in quoted if number not in pinned]
    assert stale == [], (
        f"EXPERIMENTS.md {heading} quotes numbers tests/test_ablations.py "
        f"does not pin: {stale}")


def test_sensitivity_table_matches_pinned_counts():
    """Each row of the sensitivity table quotes its pinned fork+exit
    counts (native, hypernel, kvm, in µs) and whether the ordering
    holds."""
    rows = [line for line in _section("Sensitivity analysis").splitlines()
            if line.startswith("|")]
    quoted = [[cell.strip() for cell in row.strip("|").split("|")]
              for row in rows[2:]]
    expected = [
        [label,
         *(f"{sensitivity.fork_exit_us(cycles):.1f}"
           for cycles in sensitivity.PINNED[label]),
         "**no**" if label in sensitivity.INVERTED else "yes"]
        for label in sensitivity.PERTURBATIONS
    ]
    assert quoted == expected
