"""Hypernel's security invariants as shared, executable specifications.

Every verifier in the repository — the live auditor
(:mod:`repro.core.audit`), the offline snapshot checker
(:mod:`repro.security.fuzz.snapshot_checker`) and the hypercall fuzzer
(:mod:`repro.security.fuzz.machine`) — evaluates the *same* predicate
objects defined here.  The checkers walk real translation tables and
report every violating leaf; the fuzzer evaluates candidate descriptors
up front to predict which hypercalls Hypersec must deny.  A divergence
between prediction and verdict, or between two checkers, is a bug in
one of them by construction.

The invariants (paper sections 5.2/5.3):

``NO_SECURE_MAPPING``
    No valid leaf maps any physical page of the secure region.
``NO_WRITABLE_TABLE_ALIAS``
    No leaf anywhere maps a registered table page writable.
``W_XOR_X``
    No kernel leaf is simultaneously writable and executable.
``TABLES_READ_ONLY``
    Every registered table page is read-only through the linear map.
``MONITORED_UNCACHED``
    Pages holding monitored regions are mapped non-cacheable.
``BITMAP_CONSISTENT``
    The MBM bitmap equals the union of registered regions.
``TTBR_INTEGRITY``
    Live TTBR0/TTBR1 point at registered roots.
``TABLE_TOPOLOGY``
    The table graph itself is well-formed: table pointers stay inside
    backed, non-secure RAM; every reachable table is registered (only
    checked by evidence that supplies an independent registered set).

The table walker here is *hardened*: a table pointer aiming off the end
of RAM or into the secure region produces a ``TABLE_TOPOLOGY`` finding
and truncates that branch instead of crashing the audit; loops likewise
truncate.  ``InvariantReport.truncated_walks`` counts every branch the
walker refused to follow, so a report that says "clean" but has nonzero
truncation is visibly not a full proof.

The engine works one translation table at a time.  ``walk_tables``
yields each table's 512 raw words as it reads them, and builds no
``Descriptor`` objects.  For a level-3 table, one pass over the valid
words *fast-accepts* the whole table when no entry is writable and
executable at kernel level, maps a page overlapping the secure region,
or maps a registered table page writable; an accepted table only adds
its valid-word count to ``leaves_checked``.  That pass is a filter, not
a second spec: every level-1/2 block leaf, and every leaf of a table it
does not accept, goes through the ``LEAF_INVARIANTS`` predicate objects,
so each finding (and its order) still comes from the shared predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.config import PAGE_BYTES, PAGE_WORDS, WORD_BYTES
from repro.arch.pagetable import _ADDR_MASK as DESC_ADDR_MASK
from repro.arch.pagetable import (
    DESC_AP_WRITE,
    DESC_TABLE,
    DESC_USER,
    DESC_VALID,
    DESC_XN,
    Descriptor,
    LEVEL_SPAN,
)

#: Invariant name for table-graph well-formedness findings.
TABLE_TOPOLOGY = "TABLE_TOPOLOGY"

# Cap the per-leaf page scan: 2 MB blocks dominate; 1 GB leaves do not
# occur in these kernels.
_SCAN_CAP = 2 << 20

_PAGE_MASK = PAGE_BYTES - 1

# A valid table pointer at level 1-2 has both bits set; a valid block
# leaf has only VALID.
_VALID_TABLE = DESC_VALID | DESC_TABLE

# ``raw & _WXU == DESC_AP_WRITE``: a writable, executable kernel leaf.
_WXU = DESC_AP_WRITE | DESC_XN | DESC_USER

# Words per bulk bitmap read.  A 192 MB machine has a 3 MB bitmap;
# reading it in 64 KB windows keeps it out of one Python list.
_BITMAP_WINDOW = 8192


@dataclass(frozen=True)
class Geometry:
    """The physical layout every invariant is stated against."""

    dram_base: int
    dram_limit: int
    secure_base: int
    secure_limit: int

    def in_secure(self, base: int, nbytes: int) -> bool:
        """Does ``[base, base+nbytes)`` overlap the secure region?"""
        return base < self.secure_limit and base + nbytes > self.secure_base


@dataclass(frozen=True)
class Finding:
    """One invariant violation."""

    invariant: str
    location: int
    detail: str


@dataclass
class InvariantReport:
    """Outcome of one verification pass."""

    findings: List[Finding] = field(default_factory=list)
    tables_walked: int = 0
    leaves_checked: int = 0
    bitmap_words_checked: int = 0
    #: Branches the hardened walker refused to follow (hostile table
    #: pointer, loop).  Nonzero truncation means coverage was partial.
    truncated_walks: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def add(self, invariant: str, location: int, detail: str) -> None:
        self.findings.append(Finding(invariant, location, detail))

    def __str__(self) -> str:
        if self.clean:
            text = (
                f"audit clean: {self.tables_walked} tables, "
                f"{self.leaves_checked} leaves, "
                f"{self.bitmap_words_checked} bitmap words"
            )
            if self.truncated_walks:
                text += f" ({self.truncated_walks} walk(s) truncated)"
            return text
        lines = [f"audit found {len(self.findings)} violation(s):"]
        lines.extend(
            f"  [{f.invariant}] at {f.location:#x}: {f.detail}"
            for f in self.findings
        )
        if self.truncated_walks:
            lines.append(f"  ({self.truncated_walks} walk(s) truncated)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Leaf invariants: predicates over a single valid leaf descriptor
# ----------------------------------------------------------------------
class LeafInvariant:
    """One invariant as a predicate over one valid leaf descriptor.

    ``violations`` yields every way ``desc`` (installed at ``desc_addr``
    as a level-``level`` leaf) breaks the invariant; an empty yield
    means the leaf is acceptable.  ``violated`` is the fuzzer-facing
    boolean form used to predict Hypersec denials.
    """

    def __init__(self, name: str, claim: str,
                 check: Callable[..., Iterator[Tuple[int, str]]]):
        self.name = name
        self.claim = claim
        self._check = check

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LeafInvariant {self.name}>"

    def violations(self, geometry: Geometry, desc_addr: int, level: int,
                   desc: Descriptor,
                   table_pages: Set[int]) -> Iterator[Tuple[int, str]]:
        return self._check(geometry, desc_addr, level, desc, table_pages)

    def violated(self, geometry: Geometry, level: int, desc: Descriptor,
                 table_pages: Set[int]) -> bool:
        return any(True for _ in self._check(
            geometry, 0, level, desc, table_pages))


def _no_secure_mapping(geometry, desc_addr, level, desc, table_pages):
    base = desc.address
    if geometry.in_secure(base, LEVEL_SPAN[level]):
        yield desc_addr, f"leaf maps secure region page {base:#x}"


def _no_writable_table_alias(geometry, desc_addr, level, desc, table_pages):
    if not desc.writable:
        return
    base = desc.address
    span = LEVEL_SPAN[level]
    if span == PAGE_BYTES:
        if base in table_pages:
            yield desc_addr, f"writable mapping of table page {base:#x}"
        return
    # A block leaf: the table pages among the first _SCAN_CAP bytes of
    # its span, on the page grid that starts at ``base``.
    end = base + min(span, _SCAN_CAP)
    for page in sorted(page for page in table_pages
                       if base <= page < end
                       and not (page - base) & _PAGE_MASK):
        yield desc_addr, f"writable mapping of table page {page:#x}"


def _w_xor_x(geometry, desc_addr, level, desc, table_pages):
    if desc.writable and desc.executable and not desc.user:
        yield desc_addr, f"kernel leaf W+X at {desc.address:#x}"


NO_SECURE_MAPPING = LeafInvariant(
    "NO_SECURE_MAPPING",
    "no valid leaf maps any physical page of the secure region",
    _no_secure_mapping,
)

NO_WRITABLE_TABLE_ALIAS = LeafInvariant(
    "NO_WRITABLE_TABLE_ALIAS",
    "no leaf anywhere maps a registered table page writable",
    _no_writable_table_alias,
)

W_XOR_X = LeafInvariant(
    "W_XOR_X",
    "no kernel leaf is simultaneously writable and executable",
    _w_xor_x,
)

#: Evaluation order matters only for finding order; keep the historical
#: auditor order (secure overlap, table alias, W+X).
LEAF_INVARIANTS: Tuple[LeafInvariant, ...] = (
    NO_SECURE_MAPPING,
    NO_WRITABLE_TABLE_ALIAS,
    W_XOR_X,
)


# ----------------------------------------------------------------------
# Evidence: a verifier's view of one machine
# ----------------------------------------------------------------------
class Evidence:
    """What one verification channel can see of a machine.

    Two implementations exist *on purpose*:
    ``repro.core.audit.LiveEvidence`` reads the running platform and
    Hypersec's own bookkeeping, while
    ``repro.security.fuzz.snapshot_checker.SnapshotEvidence`` re-derives
    everything from a serialized raw-memory image.  A bookkeeping bug in
    one channel cannot hide from the other; the differential gate
    (:mod:`repro.security.fuzz.differential`) makes the comparison.

    Optional hooks return ``None``/empty to disable the corresponding
    check, mirroring the historical auditor's guards for systems without
    a kernel or MBM.
    """

    geometry: Geometry

    # -- raw access ----------------------------------------------------
    def peek(self, paddr: int) -> int:
        raise NotImplementedError

    def peek_words(self, paddr: int, nwords: int) -> List[int]:
        """``nwords`` consecutive words from ``paddr``.  Channels
        override this with a bulk read of their own memory image."""
        return [self.peek(paddr + index * WORD_BYTES)
                for index in range(nwords)]

    def backed(self, paddr: int) -> bool:
        """Is ``paddr`` inside backed physical memory?"""
        raise NotImplementedError

    def reg(self, name: str) -> int:
        raise NotImplementedError

    # -- translation topology -----------------------------------------
    def roots(self) -> List[int]:
        """Root table pages to walk."""
        raise NotImplementedError

    def table_pages(self) -> Set[int]:
        """Table pages the alias / read-only checks test against."""
        raise NotImplementedError

    def claimed_tables(self) -> Optional[Set[int]]:
        """The *claimed* registered-table set to diff against the
        reachable set, or ``None`` when this channel has no independent
        ground truth to compare it with (the live auditor trusts its
        own bookkeeping — exactly the blind spot the snapshot channel
        exists to cover)."""
        return None

    # -- linear-map view ----------------------------------------------
    def has_linear_view(self) -> bool:
        return False

    def linear_leaf(self, paddr: int) -> Optional[Descriptor]:
        """The linear-map leaf descriptor covering ``paddr``, or
        ``None`` when the page has no linear translation."""
        return None

    # -- monitoring ----------------------------------------------------
    def monitored_pages(self) -> Set[int]:
        return set()

    def expected_bitmap(self) -> Optional[Dict[int, int]]:
        """Expected MBM bitmap content (word address -> mask), or
        ``None`` to skip the bitmap check."""
        return None

    def bitmap_storage(self) -> Optional[Tuple[int, int]]:
        return None

    # -- recorded policy ----------------------------------------------
    def recorded_kernel_root(self) -> Optional[int]:
        return None

    def recorded_root_tables(self) -> Set[int]:
        return set()


# ----------------------------------------------------------------------
# Hardened table walk
# ----------------------------------------------------------------------
def walk_tables(evidence: Evidence, root: int,
                report: InvariantReport) -> Iterator[Tuple[int, int, List[int]]]:
    """Depth-first walk of the translation tree rooted at ``root``.

    Yields ``(table, level, words)`` for every table read, in read
    order, where ``words`` are the table's 512 raw descriptors.
    Hostile topology — a table pointer off the end of backed RAM or
    into the secure region, or a loop — is reported/truncated instead
    of crashing.  A table's pointer findings are added to ``report``
    before the table is yielded.
    """
    geometry = evidence.geometry
    if not (evidence.backed(root)
            and evidence.backed(root + PAGE_BYTES - WORD_BYTES)):
        report.add(TABLE_TOPOLOGY, root,
                   f"root table {root:#x} is not inside backed RAM")
        report.truncated_walks += 1
        return
    seen: Set[int] = set()
    stack = [(root, 1)]
    while stack:
        table, level = stack.pop()
        if table in seen:
            # Malformed loop: count the refused branch, keep going.
            report.truncated_walks += 1
            continue
        seen.add(table)
        words = evidence.peek_words(table, PAGE_WORDS)
        if level < 3:
            for index, raw in enumerate(words):
                if raw & _VALID_TABLE != _VALID_TABLE:
                    continue
                child = raw & DESC_ADDR_MASK
                if not (evidence.backed(child)
                        and evidence.backed(child + PAGE_BYTES - WORD_BYTES)):
                    report.add(
                        TABLE_TOPOLOGY, table + index * WORD_BYTES,
                        f"table pointer to unbacked memory {child:#x}")
                    report.truncated_walks += 1
                elif geometry.in_secure(child, PAGE_BYTES):
                    report.add(
                        TABLE_TOPOLOGY, table + index * WORD_BYTES,
                        f"table pointer into the secure region {child:#x}")
                    report.truncated_walks += 1
                else:
                    stack.append((child, level + 1))
        yield table, level, words


# ----------------------------------------------------------------------
# The checking engine
# ----------------------------------------------------------------------
def accepts_page_table(geometry: Geometry, valid: List[int],
                       table_pages: Set[int]) -> bool:
    """Fast accept for a level-3 table whose valid words are ``valid``.

    True only when no entry is a kernel W+X leaf, maps a page that
    overlaps the secure region, or maps a table page writable — that
    is, when no ``LEAF_INVARIANTS`` predicate can report anything for
    the table.  A conservative filter in front of the predicates, never
    a replacement for them.
    """
    # A 4 KB page at ``addr`` overlaps the secure region exactly when
    # ``secure_low < addr < secure_high`` (``Geometry.in_secure``).
    secure_low = geometry.secure_base - PAGE_BYTES
    secure_high = geometry.secure_limit
    return not any([
        raw & _WXU == DESC_AP_WRITE
        or secure_low < (raw & DESC_ADDR_MASK) < secure_high
        or (raw & DESC_AP_WRITE and (raw & DESC_ADDR_MASK) in table_pages)
        for raw in valid])


def run_invariants(evidence: Evidence) -> InvariantReport:
    """Run every invariant check against ``evidence``."""
    report = InvariantReport()
    _check_ttbrs(evidence, report)
    geometry = evidence.geometry
    table_pages = evidence.table_pages()
    reached: Set[int] = set()
    for root in evidence.roots():
        # Leaf findings wait until the walk is over, so a root's
        # TABLE_TOPOLOGY findings come first.
        leaf_findings: List[Finding] = []
        for table, level, words in walk_tables(evidence, root, report):
            report.tables_walked += 1
            reached.add(table)
            if level == 3:
                valid = [raw for raw in words if raw & DESC_VALID]
                report.leaves_checked += len(valid)
                if accepts_page_table(geometry, valid, table_pages):
                    continue
                leaves = [(index, raw) for index, raw in enumerate(words)
                          if raw & DESC_VALID]
            else:
                leaves = [(index, raw) for index, raw in enumerate(words)
                          if raw & _VALID_TABLE == DESC_VALID]
                report.leaves_checked += len(leaves)
            for index, raw in leaves:
                desc_addr = table + index * WORD_BYTES
                desc = Descriptor(raw)
                for invariant in LEAF_INVARIANTS:
                    for location, detail in invariant.violations(
                            geometry, desc_addr, level, desc, table_pages):
                        leaf_findings.append(
                            Finding(invariant.name, location, detail))
        report.findings.extend(leaf_findings)
    claimed = evidence.claimed_tables()
    if claimed is not None:
        for table in sorted(reached - claimed):
            report.add(
                TABLE_TOPOLOGY, table,
                "reachable translation table is not in the registered set")
    _check_tables_read_only(evidence, report, table_pages)
    _check_monitored_pages(evidence, report)
    _check_bitmap(evidence, report)
    return report


def _check_ttbrs(evidence: Evidence, report: InvariantReport) -> None:
    recorded_root = evidence.recorded_kernel_root()
    if recorded_root is None:
        return
    ttbr1 = evidence.reg("TTBR1_EL1")
    if ttbr1 != recorded_root:
        report.add("TTBR_INTEGRITY", ttbr1,
                   "TTBR1_EL1 does not point at the recorded kernel root")
    ttbr0 = evidence.reg("TTBR0_EL1") & ~_PAGE_MASK
    if ttbr0 and ttbr0 not in evidence.recorded_root_tables():
        report.add("TTBR_INTEGRITY", ttbr0,
                   "TTBR0_EL1 points at an unregistered root")


def _check_tables_read_only(evidence: Evidence, report: InvariantReport,
                            table_pages: Set[int]) -> None:
    if not evidence.has_linear_view():
        return
    for table in sorted(table_pages):
        leaf = evidence.linear_leaf(table)
        if leaf is None:
            report.add(TABLE_TOPOLOGY, table,
                       "table page has no linear-map translation")
        elif leaf.writable:
            report.add("TABLES_READ_ONLY", table,
                       "table page is writable through the linear map")


def _check_monitored_pages(evidence: Evidence,
                           report: InvariantReport) -> None:
    if not evidence.has_linear_view():
        return
    for page in sorted(evidence.monitored_pages()):
        leaf = evidence.linear_leaf(page)
        if leaf is None:
            report.add("MONITORED_UNCACHED", page,
                       "monitored page has no linear-map translation")
        elif leaf.cacheable:
            report.add("MONITORED_UNCACHED", page,
                       "monitored page is cacheable: MBM would miss writes")


def _check_bitmap(evidence: Evidence, report: InvariantReport) -> None:
    """The bitmap must equal the union of registered regions."""
    expected = evidence.expected_bitmap()
    storage = evidence.bitmap_storage()
    if expected is None or storage is None:
        return
    bitmap_base, bitmap_limit = storage
    nwords = len(range(bitmap_base, bitmap_limit, WORD_BYTES))
    # A word that is zero and expected zero can neither differ nor
    # count: keep only set words and words the regions name.
    actual_at: Dict[int, int] = {}
    for start in range(0, nwords, _BITMAP_WINDOW):
        words = evidence.peek_words(bitmap_base + start * WORD_BYTES,
                                    min(_BITMAP_WINDOW, nwords - start))
        for index in compress(range(len(words)), words):
            actual_at[start + index] = words[index]
    wanted_at: Dict[int, int] = {}
    for word_addr, mask in expected.items():
        offset = word_addr - bitmap_base
        if 0 <= offset < nwords * WORD_BYTES and not offset % WORD_BYTES:
            wanted_at[offset // WORD_BYTES] = mask
    for index in sorted(actual_at.keys() | wanted_at.keys()):
        word_addr = bitmap_base + index * WORD_BYTES
        actual = actual_at.get(index, 0)
        wanted = wanted_at.get(index, 0)
        if actual != wanted:
            report.add(
                "BITMAP_CONSISTENT", word_addr,
                f"bitmap word is {actual:#x}, regions imply {wanted:#x}")
        if actual or wanted:
            report.bitmap_words_checked += 1
