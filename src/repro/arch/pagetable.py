"""Translation-table descriptors and layout constants.

The regime is the 3-level, 4 KB-granule, 39-bit-VA layout that Linux
3.10 used on AArch64 (the paper's kernel): level 1 indexes VA[38:30],
level 2 VA[29:21] (2 MB *blocks* allowed — the "sections" of paper
section 6.2), level 3 VA[20:12] (4 KB pages).  Each table is one 4 KB
page of 512 eight-byte descriptors.

Descriptor encoding (simulation-defined, stable, documented here):

======  ==========================================================
bit 0   VALID
bit 1   TABLE — at levels 1-2: next-level table pointer; at level 3
        always set for a valid page descriptor (as on real ARM)
bit 2   AP_WRITE — writable (read access is always permitted)
bit 3   XN — execute never
bit 4   NC — non-cacheable (device-like; every access reaches the bus)
bit 5   COW — software bit: copy-on-write page (kernel-owned meaning)
bit 6   USER — EL0 may access
bits 47:12  output address (4 KB-aligned table/page/block base)
======  ==========================================================

The same encoding is used for stage-1, stage-2 and EL2 tables; stage-2
descriptors simply ignore USER/COW.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PAGE_BYTES, SECTION_BYTES
from repro.errors import SimulationError
from repro.utils.bitops import bit, bits, is_aligned

# --- descriptor bits ----------------------------------------------------
DESC_VALID = bit(0)
DESC_TABLE = bit(1)
DESC_AP_WRITE = bit(2)
DESC_XN = bit(3)
DESC_NC = bit(4)
DESC_COW = bit(5)
DESC_USER = bit(6)

_ADDR_MASK = bits(47, 12)

# --- regime geometry ----------------------------------------------------
#: Number of translation levels (1, 2, 3 to match the ARM naming for
#: this configuration; walks run level 1 -> 3).
LEVELS = (1, 2, 3)
ENTRIES_PER_TABLE = 512
VA_BITS = 39

#: User (TTBR0) virtual addresses are ``[0, USER_VA_LIMIT)``.
USER_VA_LIMIT = 1 << VA_BITS

#: Kernel (TTBR1) virtual addresses are ``[KERNEL_VA_BASE, 2**64)``.
KERNEL_VA_BASE = (1 << 64) - (1 << VA_BITS)

_LEVEL_SHIFT = {1: 30, 2: 21, 3: 12}

#: Bytes mapped by one leaf at each level (level 2 block = 2 MB section).
LEVEL_SPAN = {1: 1 << 30, 2: SECTION_BYTES, 3: PAGE_BYTES}


def index_for_level(va_offset: int, level: int) -> int:
    """Table index at ``level`` for an offset within the 39-bit space."""
    return (va_offset >> _LEVEL_SHIFT[level]) & (ENTRIES_PER_TABLE - 1)


def split_vaddr(vaddr: int) -> tuple[str, int]:
    """Classify a VA as ``("user", offset)`` or ``("kernel", offset)``.

    Raises :class:`SimulationError` for addresses in the unmapped hole
    between the two regions (hardware would fault; in this simulation a
    hole access is always a harness bug).
    """
    if vaddr < USER_VA_LIMIT:
        return "user", vaddr
    if vaddr >= KERNEL_VA_BASE:
        return "kernel", vaddr - KERNEL_VA_BASE
    raise SimulationError(f"virtual address {vaddr:#x} is in the TTBR hole")


@dataclass(frozen=True)
class Descriptor:
    """Decoded view of one 64-bit translation-table descriptor."""

    raw: int

    @property
    def valid(self) -> bool:
        return bool(self.raw & DESC_VALID)

    @property
    def is_table(self) -> bool:
        return bool(self.raw & DESC_TABLE)

    @property
    def writable(self) -> bool:
        return bool(self.raw & DESC_AP_WRITE)

    @property
    def executable(self) -> bool:
        return not (self.raw & DESC_XN)

    @property
    def cacheable(self) -> bool:
        return not (self.raw & DESC_NC)

    @property
    def user(self) -> bool:
        return bool(self.raw & DESC_USER)

    @property
    def address(self) -> int:
        """Output address (next table, page or block base)."""
        return self.raw & _ADDR_MASK


def _check_addr(paddr: int, alignment: int, what: str) -> None:
    if not is_aligned(paddr, alignment):
        raise SimulationError(f"{what} {paddr:#x} not {alignment}-byte aligned")
    if paddr & ~_ADDR_MASK:
        raise SimulationError(f"{what} {paddr:#x} outside the 48-bit PA space")


def make_table_desc(next_table_paddr: int) -> int:
    """Descriptor pointing at a next-level table."""
    _check_addr(next_table_paddr, PAGE_BYTES, "table address")
    return next_table_paddr | DESC_VALID | DESC_TABLE


def make_page_desc(
    page_paddr: int,
    writable: bool = True,
    executable: bool = False,
    cacheable: bool = True,
    user: bool = False,
    cow: bool = False,
) -> int:
    """Level-3 descriptor mapping one 4 KB page."""
    _check_addr(page_paddr, PAGE_BYTES, "page address")
    raw = page_paddr | DESC_VALID | DESC_TABLE
    if writable:
        raw |= DESC_AP_WRITE
    if not executable:
        raw |= DESC_XN
    if not cacheable:
        raw |= DESC_NC
    if user:
        raw |= DESC_USER
    if cow:
        raw |= DESC_COW
    return raw


def make_block_desc(
    block_paddr: int,
    writable: bool = True,
    executable: bool = False,
    cacheable: bool = True,
    user: bool = False,
) -> int:
    """Level-2 descriptor mapping one 2 MB block ("section")."""
    _check_addr(block_paddr, SECTION_BYTES, "block address")
    raw = block_paddr | DESC_VALID  # TABLE bit clear = block at level 2
    if writable:
        raw |= DESC_AP_WRITE
    if not executable:
        raw |= DESC_XN
    if not cacheable:
        raw |= DESC_NC
    if user:
        raw |= DESC_USER
    return raw


def invalid_desc() -> int:
    """An invalid (unmapped) descriptor."""
    return 0
