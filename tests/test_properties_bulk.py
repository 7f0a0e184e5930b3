"""Property tests: vectorized bulk memory paths vs word-at-a-time models.

The bulk fast paths (``PhysicalMemory.fill``/``copy_words``/
``read_words``/``write_words``, ``Caches.touch_block``'s batched read-miss and
streaming-store loops, ``MemoryBus.write_block``'s coalesced bitmap
scan, ``MemoryBus.peek_words``, the invariant checkers' whole-table and
whole-bitmap reads, and their per-table fast accept) are pure
optimizations: each must be observationally identical to the
word-at-a-time (or line-at-a-time) reference it replaced — same bytes,
same cycle charges, same bus-snoop events, same findings.  These
properties drive randomized op sequences through both and compare
everything, with the generators biased toward the edges that
historically break such code: chunk boundaries, cache-line boundaries,
range ends and monitored pages.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.arch.pagetable import (
    DESC_AP_WRITE,
    DESC_NC,
    DESC_TABLE,
    DESC_USER,
    DESC_VALID,
    DESC_XN,
    Descriptor,
)
from repro.config import PAGE_BYTES, PAGE_WORDS, SECTION_BYTES, CostModel
from repro.core.audit import LiveEvidence
from repro.errors import MemoryRangeError
from repro.hw.bus import MemoryBus
from repro.hw.clock import Clock
from repro.hw.dram import DramModel
from repro.hw.memory import _CHUNK_BYTES, PhysicalMemory
from repro.security.fuzz import invariants, snapshot_checker
from repro.security.fuzz.invariants import (
    LEAF_INVARIANTS,
    TABLE_TOPOLOGY,
    Evidence,
    Finding,
    Geometry,
    InvariantReport,
    accepts_page_table,
    run_invariants,
    walk_tables,
)
from repro.security.fuzz.machine import boot_snapshot, restore_from_snapshot
from repro.security.fuzz.snapshot_checker import (
    SnapshotEvidence,
    capture_snapshot,
)
from tests.helpers import small_config, small_platform

WORD = 8
BASE = 0x8000_0000
CHUNK_WORDS = _CHUNK_BYTES // WORD

# ----------------------------------------------------------------------
# PhysicalMemory bulk ops vs per-word reference
# ----------------------------------------------------------------------
#: Two adjacent ranges: runs crossing BASE + RANGE_BYTES exercise the
#: leave-the-range fallback inside fill/copy/read_words.
RANGE_BYTES = 2 * _CHUNK_BYTES
WINDOW_WORDS = 2 * RANGE_BYTES // WORD


def _dual_memory():
    mem = PhysicalMemory()
    mem.add_range(BASE, RANGE_BYTES)
    mem.add_range(BASE + RANGE_BYTES, RANGE_BYTES)
    return mem


#: Offsets biased toward chunk and range boundaries.
_edge_offsets = st.one_of(
    st.integers(0, WINDOW_WORDS - 1),
    st.builds(
        lambda boundary, jitter: max(
            0, min(WINDOW_WORDS - 1, boundary + jitter)
        ),
        st.sampled_from(
            [CHUNK_WORDS, 2 * CHUNK_WORDS, 3 * CHUNK_WORDS, WINDOW_WORDS]
        ),
        st.integers(-3, 3),
    ),
)

_mem_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("fill"), _edge_offsets, st.integers(1, 3 * CHUNK_WORDS),
            st.sampled_from([0, 1, 0xDEAD_BEEF_0BAD_F00D, (1 << 64) - 1]),
        ),
        st.tuples(
            st.just("copy"), _edge_offsets, _edge_offsets,
            st.integers(1, CHUNK_WORDS),
        ),
        st.tuples(
            st.just("write"), _edge_offsets,
            st.integers(0, (1 << 64) - 1), st.just(0),
        ),
        st.tuples(
            st.just("store"), _edge_offsets, st.integers(1, 3 * CHUNK_WORDS),
            st.sampled_from([0, 1, 0xDEAD_BEEF_0BAD_F00D, (1 << 64) - 1]),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestPhysicalMemoryBulkOps:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_mem_ops, st.data())
    def test_bulk_ops_match_word_loop(self, ops, data):
        fast = _dual_memory()
        ref = _dual_memory()
        for op in ops:
            if op[0] == "fill":
                _, off, n, value = op
                n = min(n, WINDOW_WORDS - off)
                fast.fill(BASE + off * WORD, n, value)
                for i in range(n):
                    ref.write_word(BASE + (off + i) * WORD, value)
            elif op[0] == "copy":
                _, src, dst, n = op
                n = min(n, WINDOW_WORDS - src, WINDOW_WORDS - dst)
                if n <= 0 or abs(src - dst) < n:
                    continue  # copy_words requires non-overlapping runs
                fast.copy_words(BASE + src * WORD, BASE + dst * WORD, n)
                for i in range(n):
                    ref.write_word(
                        BASE + (dst + i) * WORD,
                        ref.read_word(BASE + (src + i) * WORD),
                    )
            elif op[0] == "store":
                # A run of distinct words with zeros among them.
                _, off, n, seed = op
                n = min(n, WINDOW_WORDS - off)
                values = [(seed * i) % (1 << 64) for i in range(n)]
                fast.write_words(BASE + off * WORD, values)
                for i, value in enumerate(values):
                    ref.write_word(BASE + (off + i) * WORD, value)
            else:
                _, off, value, _ = op
                fast.write_word(BASE + off * WORD, value)
                ref.write_word(BASE + off * WORD, value)

        # Bulk read vs per-word read, on both memories, over spans the
        # generator points at boundaries.
        for _ in range(4):
            off = data.draw(_edge_offsets)
            n = min(data.draw(st.integers(1, 3 * CHUNK_WORDS)),
                    WINDOW_WORDS - off)
            span = fast.read_words(BASE + off * WORD, n)
            assert span == [
                ref.read_word(BASE + (off + i) * WORD) for i in range(n)
            ]
        # Full-window byte equality between the two histories.
        assert (fast.read_words(BASE, WINDOW_WORDS)
                == ref.read_words(BASE, WINDOW_WORDS))

    def test_zero_fill_stays_sparse(self):
        mem = _dual_memory()
        mem.fill(BASE, WINDOW_WORDS, 0)
        assert mem._chunk_maps == [{}, {}]
        assert mem.read_words(BASE, 4) == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# Caches.touch_block batched loop vs per-line reference
# ----------------------------------------------------------------------
class _RecordingSnooper:
    def __init__(self):
        self.txns = []

    def __call__(self, txn):
        self.txns.append((txn.kind, txn.paddr, txn.value, txn.nwords,
                          txn.initiator))


def _observable(platform):
    caches = platform.caches
    return (
        platform.clock.now,
        caches.l1.stats.snapshot(),
        caches.l2.stats.snapshot(),
        list(caches.l1._sets.items()),
        list(caches.l2._sets.items()),
        platform.bus.stats.snapshot(),
        dict(platform.dram._open_rows),
    )


def _line_window(platform):
    line_bytes = platform.caches.l1.line_bytes
    return line_bytes, 512  # lines in the exercised window


_touch_ops = st.lists(
    st.tuples(
        st.booleans(),                # is_write
        st.integers(0, 511),          # line index in window
        st.integers(0, 7),            # word offset inside the line
        st.integers(1, 192),          # word count (spans several lines)
    ),
    min_size=1,
    max_size=20,
)

_warm_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 511)),
    max_size=24,
)


class TestTouchBlockAgainstPerLineReference:
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_warm_ops, _touch_ops)
    def test_batched_path_matches_reference(self, warm, ops):
        fast_platform = small_platform()
        ref_platform = small_platform()
        recorders = []
        for platform in (fast_platform, ref_platform):
            rec = _RecordingSnooper()
            platform.bus.attach_snooper(rec)
            recorders.append(rec)

        for platform in (fast_platform, ref_platform):
            caches = platform.caches
            line_bytes = caches.l1.line_bytes
            for is_write, line_index in warm:
                paddr = BASE + line_index * line_bytes
                if is_write:
                    caches.write(paddr, 0x55, cacheable=True)
                else:
                    caches.read(paddr, cacheable=True)

        line_bytes = fast_platform.caches.l1.line_bytes
        for is_write, line_index, word_off, nwords in ops:
            paddr = BASE + line_index * line_bytes + word_off * WORD
            # Vectorized path.
            fast_platform.caches.touch_block(paddr, nwords, is_write)
            # Per-line reference path (the documented fallback).
            caches = ref_platform.caches
            first = paddr & caches._line_mask
            last = (paddr + (nwords - 1) * WORD) & caches._line_mask
            for line in range(first, last + 1, line_bytes):
                if is_write:
                    caches._install_dirty(line)
                else:
                    caches._ensure_resident(line, initiator="cpu")

        assert _observable(fast_platform) == _observable(ref_platform)
        assert recorders[0].txns == recorders[1].txns


#: Caches of one or two sets, so an 8-line window keeps both levels
#: full and evicting: dirty L1 victims fold into a full L2 set and push
#: its dirty lines out while the stream hits in L2.  "odd" has a
#: non-power-of-two L2 (3 sets), so touch_block takes its per-line
#: fallback.
_TINY_CACHES = {
    "one_set": dict(l1_bytes=128, l1_ways=2, l2_bytes=256, l2_ways=4),
    "two_sets": dict(l1_bytes=256, l1_ways=2, l2_bytes=512, l2_ways=4),
    "odd": dict(l1_bytes=256, l1_ways=2, l2_bytes=768, l2_ways=4),
}

_stream_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 7), st.just(0),
                  st.just(1)),
        st.tuples(st.just("read"), st.integers(0, 7), st.integers(0, 7),
                  st.integers(1, 32)),
    ),
    min_size=1,
    max_size=12,
)


class _TimedSnooper(_RecordingSnooper):
    """Also records the clock each transaction is seen at."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock

    def __call__(self, txn):
        self.txns.append((self.clock.now, txn.kind, txn.paddr, txn.nwords,
                          txn.initiator))


class TestReadStreamAgainstPerLineReference:
    """The batched read-miss stream of ``touch_block`` against
    ``_ensure_resident`` per line: same clock, StatSets, LRU state and
    DRAM rows, and every fill and writeback at the same clock value."""

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.sampled_from(sorted(_TINY_CACHES)), _stream_ops)
    @example(geometry="one_set", ops=[    # a dirty L2 victim of an L1
        ("write", 1, 0, 1), ("read", 5, 0, 8),   # victim, mid-stream
        ("write", 4, 0, 1), ("read", 3, 0, 16), ("read", 2, 0, 16)])
    def test_read_stream_matches_reference(self, geometry, ops):
        fast_platform = small_platform(**_TINY_CACHES[geometry])
        ref_platform = small_platform(**_TINY_CACHES[geometry])
        recorders = []
        for platform in (fast_platform, ref_platform):
            rec = _TimedSnooper(platform.clock)
            platform.bus.attach_snooper(rec)
            recorders.append(rec)
        line_bytes = fast_platform.caches.l1.line_bytes
        for kind, line_index, word_off, nwords in ops:
            paddr = BASE + line_index * line_bytes + word_off * WORD
            if kind == "write":
                for platform in (fast_platform, ref_platform):
                    platform.caches.write(paddr, 0x55, cacheable=True)
                continue
            fast_platform.caches.touch_block(paddr, nwords, False)
            caches = ref_platform.caches
            first = paddr & caches._line_mask
            last = (paddr + (nwords - 1) * WORD) & caches._line_mask
            for line in range(first, last + 1, line_bytes):
                caches._ensure_resident(line, initiator="cpu")

        assert _observable(fast_platform) == _observable(ref_platform)
        assert recorders[0].txns == recorders[1].txns


# ----------------------------------------------------------------------
# Coalesced block-write bitmap scan vs per-word bitmap checks
# ----------------------------------------------------------------------
def build_storm():
    """A full-Hypernel system and its op: one uncached write to the
    monitored ``euid`` word (bus, snooper, MBM pipeline and ring)."""
    from repro.core.hypernel import build_hypernel
    from repro.kernel.objects import CRED
    from repro.security import CredIntegrityMonitor

    system = build_hypernel(
        platform_config=small_config(mbm_ring_entries=16),
        monitors=[CredIntegrityMonitor()],
    )
    init = system.spawn_init()
    euid_kva = system.kernel.linear_map.kva(
        init.cred_pa + CRED.field("euid").byte_offset
    )
    write = system.kernel.cpu.write

    def op():
        write(euid_kva, 0)

    return system, op


@pytest.fixture(scope="module")
def storm_system():
    system, op = build_storm()
    for _ in range(8):  # populate pipeline, warm bitmap cache
        op()
    return system


class TestBlockWritesOverMonitoredPages:
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    @given(st.integers(-520, 520), st.integers(1, 600))
    def test_block_capture_hits_match_per_word_bitmap(
        self, storm_system, start_off, nwords
    ):
        """``capture_block``'s coalesced ``words_for_range`` scan must
        flag exactly the words a per-word ``bitmap.locate`` walk flags —
        including spans straddling the monitored page's edges."""
        system = storm_system
        mbm = system.mbm
        init = system.kernel.procs.current
        anchor = init.cred_pa & ~7
        start = anchor + start_off * WORD
        peek = system.platform.bus.peek

        expected = 0
        for i in range(nwords):
            paddr = start + i * WORD
            if not mbm.bitmap.covers(paddr):
                continue
            word_addr, bit = mbm.bitmap.locate(paddr)
            if (peek(word_addr) >> bit) & 1:
                expected += 1

        before = mbm.decision._checked, mbm.decision._hits
        system.platform.bus.write_block(start, nwords, initiator="cpu")
        after = mbm.decision._checked, mbm.decision._hits
        assert after[1] - before[1] == expected


# ----------------------------------------------------------------------
# MemoryBus.peek_words vs per-word peek
# ----------------------------------------------------------------------
def _dual_bus():
    return MemoryBus(_dual_memory(), DramModel(CostModel()), Clock())


class TestBusPeekWords:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(st.tuples(_edge_offsets, st.integers(1, (1 << 64) - 1)),
                 max_size=24),
        _edge_offsets,
        st.integers(1, 3 * CHUNK_WORDS),
    )
    def test_matches_peek_across_chunks_and_ranges(self, writes, off, n):
        bus = _dual_bus()
        for word, value in writes:
            bus.poke(BASE + word * WORD, value)
        n = min(n, WINDOW_WORDS - off)
        before = (bus.clock.now, bus.stats.snapshot())
        span = bus.peek_words(BASE + off * WORD, n)
        assert span == [bus.peek(BASE + (off + i) * WORD) for i in range(n)]
        # A backdoor read: no timing, no counters.
        assert (bus.clock.now, bus.stats.snapshot()) == before

    @pytest.mark.parametrize("start_word, nwords", [
        (-1, 1),                   # below the first range
        (-4, 8),                   # starts below, ends inside
        (WINDOW_WORDS, 1),         # past the second range
        (WINDOW_WORDS - 3, 4),     # starts inside, runs off the end
    ])
    def test_unbacked_raises_like_peek(self, start_word, nwords):
        bus = _dual_bus()
        start = BASE + start_word * WORD
        with pytest.raises(MemoryRangeError):
            bus.peek_words(start, nwords)
        with pytest.raises(MemoryRangeError):
            for i in range(nwords):
                bus.peek(start + i * WORD)


# ----------------------------------------------------------------------
# Invariant engine: bulk channels vs per-word reads
# ----------------------------------------------------------------------
#: The image: IMG_PAGES pages over two adjacent ranges whose boundary
#: sits mid-page (word- but neither page- nor chunk-aligned), with the
#: last SECURE_PAGES pages playing the secure region.
IMG_PAGES = 40
SECURE_PAGES = 4
IMG_SPLIT = 18 * PAGE_BYTES + 0x100
IMG_LIMIT = BASE + IMG_PAGES * PAGE_BYTES
IMG_SECURE = IMG_LIMIT - SECURE_PAGES * PAGE_BYTES
#: The bitmap straddles the range boundary.
IMG_BITMAP = (BASE + IMG_SPLIT - 48 * WORD, BASE + IMG_SPLIT + 80 * WORD)
_BITMAP_WORDS = (IMG_BITMAP[1] - IMG_BITMAP[0]) // WORD


def _page(index):
    return BASE + index * PAGE_BYTES


class _ImageEvidence(Evidence):
    """A bare channel over a two-range raw image, reading in bulk."""

    geometry = Geometry(dram_base=BASE, dram_limit=IMG_LIMIT,
                        secure_base=IMG_SECURE, secure_limit=IMG_LIMIT)

    def __init__(self, memory, roots, tables, expected):
        self.memory = memory
        self._roots = roots
        self._tables = tables
        self._expected = expected

    def peek(self, paddr):
        return self.memory.read_word(paddr)

    def peek_words(self, paddr, nwords):
        return self.memory.read_words(paddr, nwords)

    def backed(self, paddr):
        return self.memory.contains(paddr)

    def roots(self):
        return list(self._roots)

    def table_pages(self):
        return set(self._tables)

    def claimed_tables(self):
        return set(self._tables)

    def expected_bitmap(self):
        return dict(self._expected)

    def bitmap_storage(self):
        return IMG_BITMAP


class _PerWordImage(_ImageEvidence):
    peek_words = Evidence.peek_words


class _PerWordLive(LiveEvidence):
    peek_words = Evidence.peek_words


class _PerWordSnapshot(SnapshotEvidence):
    peek_words = Evidence.peek_words


def _per_word(check):
    """Run ``check`` with every bitmap read one word long, as the
    word-at-a-time reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "_BITMAP_WINDOW", 1)
        patch.setattr(snapshot_checker, "_READ_WINDOW", 1)
        return check()


def _summary(report):
    return (report.findings, report.tables_walked, report.leaves_checked,
            report.bitmap_words_checked, report.truncated_walks)


_ATTRS = st.sampled_from(
    [0, DESC_AP_WRITE, DESC_AP_WRITE | DESC_XN, DESC_AP_WRITE | DESC_NC,
     DESC_XN | DESC_USER, DESC_AP_WRITE | DESC_USER]
)


def _descriptor(kind, target, attrs):
    """A raw descriptor of the given hostile or benign ``kind``."""
    if kind == "table":      # may loop, or point into the secure pages
        return _page(target) | DESC_VALID | DESC_TABLE
    if kind == "unbacked":
        return (IMG_LIMIT + target * PAGE_BYTES) | DESC_VALID | DESC_TABLE
    if kind == "below":
        return (BASE - PAGE_BYTES) | DESC_VALID | DESC_TABLE
    if kind == "page":       # a page leaf at level 3
        return _page(target) | DESC_VALID | DESC_TABLE | attrs
    if kind == "block":      # a 2 MB / 1 GB block at level 1-2
        return _page(target) | DESC_VALID | attrs
    return target << 12 | attrs | 0x2   # invalid, but non-zero


_slots = st.one_of(st.sampled_from([0, 1, PAGE_WORDS - 2, PAGE_WORDS - 1]),
                   st.integers(0, PAGE_WORDS - 1))

_image = st.fixed_dictionaries({
    "tables": st.lists(st.integers(0, IMG_PAGES - 1), min_size=1,
                       max_size=8, unique=True),
    "writes": st.lists(
        st.tuples(
            st.integers(0, 7), _slots,
            st.sampled_from(["table", "table", "unbacked", "below", "page",
                             "block", "block", "junk"]),
            st.integers(0, IMG_PAGES - 1), _ATTRS,
        ),
        max_size=40,
    ),
    "extra_roots": st.lists(
        st.sampled_from([_page(3), _page(IMG_PAGES), BASE - PAGE_BYTES,
                         _page(IMG_PAGES - 1)]),
        max_size=2,
    ),
    "extra_tables": st.lists(
        st.builds(lambda page, skew: _page(page) + skew,
                  st.integers(0, IMG_PAGES - 1),
                  st.sampled_from([0, 0, WORD, PAGE_BYTES // 2])),
        max_size=4,
    ),
    "expected": st.dictionaries(
        st.integers(-4, _BITMAP_WORDS + 4).map(
            lambda i: IMG_BITMAP[0] + i * WORD),
        st.integers(0, (1 << 64) - 1), max_size=12,
    ),
    "stray": st.dictionaries(st.integers(0, _BITMAP_WORDS - 1),
                             st.integers(1, (1 << 64) - 1), max_size=4),
    "missing": st.lists(st.integers(0, 11), max_size=3),
})


def _build_image(spec):
    memory = PhysicalMemory()
    memory.add_range(BASE, IMG_SPLIT)
    memory.add_range(BASE + IMG_SPLIT, IMG_PAGES * PAGE_BYTES - IMG_SPLIT)
    tables = [_page(index) for index in spec["tables"]]
    for which, slot, kind, target, attrs in spec["writes"]:
        table = tables[which % len(tables)]
        memory.write_word(table + slot * WORD,
                          _descriptor(kind, target, attrs))
    # The bitmap: the regions' words, then stray bits and lost words.
    expected = spec["expected"]
    in_storage = sorted(addr for addr in expected
                        if IMG_BITMAP[0] <= addr < IMG_BITMAP[1])
    for addr in in_storage:
        memory.write_word(addr, expected[addr])
    for index, mask in spec["stray"].items():
        addr = IMG_BITMAP[0] + index * WORD
        memory.write_word(addr, memory.read_word(addr) | mask)
    for pick in spec["missing"]:
        if in_storage:
            memory.write_word(in_storage[pick % len(in_storage)], 0)
    roots = sorted(set(tables[:2]) | set(spec["extra_roots"]))
    claimed = set(tables) | set(spec["extra_tables"])
    return memory, roots, claimed, expected


def _assert_image_channels_agree(spec):
    memory, roots, claimed, expected = _build_image(spec)
    bulk = run_invariants(_ImageEvidence(memory, roots, claimed, expected))
    ref = _per_word(lambda: run_invariants(
        _PerWordImage(memory, roots, claimed, expected)))
    assert _summary(bulk) == _summary(ref)
    return bulk


#: Every hostile shape at once.
_HOSTILE_IMAGE = {
    # Table 0 in the first range; tables 19 and 20 in the second
    # (page 18 straddles the range boundary).
    "tables": [0, 18, 19, 20],
    "writes": [
        (0, 0, "table", 18, 0),                    # -> straddling
        (0, PAGE_WORDS - 1, "table", 19, 0),
        (1, PAGE_WORDS - 1, "table", 0, 0),        # loop
        (2, 5, "unbacked", 2, 0),
        (2, 6, "below", 0, 0),
        (2, 7, "table", IMG_PAGES - 1, 0),         # secure
        (2, PAGE_WORDS - 1, "table", 20, 0),
        (1, 200, "block", 17, DESC_AP_WRITE),      # covers 18..
        (0, 10, "block", 0, DESC_AP_WRITE | DESC_XN),  # starts on 0
        (3, PAGE_WORDS - 1, "page", 0, DESC_AP_WRITE),
        (3, 9, "junk", 5, 0),
    ],
    "extra_roots": [_page(IMG_PAGES)],
    "extra_tables": [_page(30) + WORD],
    "expected": {IMG_BITMAP[0]: 0xF0,
                 IMG_BITMAP[0] + 60 * WORD: 0x1,
                 IMG_BITMAP[1] - WORD: 0x4,                # last word
                 IMG_BITMAP[1]: 0x3},                      # past the end
    "stray": {47: 0x8, 48: 0x10, _BITMAP_WORDS - 1: 0x20},
    "missing": [1],
}


class TestInvariantEngineBulkVsPerWord:
    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_image)
    def test_random_images_report_identically(self, spec):
        _assert_image_channels_agree(spec)

    def test_handcrafted_hostile_image(self):
        """A fixed image holding every hostile shape, so the comparison
        is known to cover non-trivial reports."""
        report = _assert_image_channels_agree(_HOSTILE_IMAGE)
        # The figures the word-at-a-time engine reported for this image.
        assert Counter(f.invariant for f in report.findings) == {
            "TABLE_TOPOLOGY": 4, "NO_WRITABLE_TABLE_ALIAS": 15,
            "NO_SECURE_MAPPING": 5, "W_XOR_X": 3, "BITMAP_CONSISTENT": 4,
        }
        assert _summary(report)[1:] == (7, 9, 5, 6)
        assert [
            ((f.location - IMG_BITMAP[0]) // WORD, f.detail)
            for f in report.findings if f.invariant == "BITMAP_CONSISTENT"
        ] == [
            (47, "bitmap word is 0x8, regions imply 0x0"),
            (48, "bitmap word is 0x10, regions imply 0x0"),
            (60, "bitmap word is 0x0, regions imply 0x1"),
            (_BITMAP_WORDS - 1, "bitmap word is 0x24, regions imply 0x4"),
        ]


# ----------------------------------------------------------------------
# Table-at-a-time leaf checking vs the per-leaf reference engine
# ----------------------------------------------------------------------
def _reference_walk(evidence, root, report):
    """The leaf-list walker the table walker replaced: ``(tables
    visited, [(desc_addr, level, Descriptor)])`` for every valid leaf,
    with the same hardened handling of hostile pointers and loops."""
    geometry = evidence.geometry
    seen = set()
    leaves = []
    if not (evidence.backed(root)
            and evidence.backed(root + PAGE_BYTES - WORD)):
        report.add(TABLE_TOPOLOGY, root,
                   f"root table {root:#x} is not inside backed RAM")
        report.truncated_walks += 1
        return seen, leaves
    stack = [(root, 1)]
    while stack:
        table, level = stack.pop()
        if table in seen:
            report.truncated_walks += 1
            continue
        seen.add(table)
        for index, raw in enumerate(evidence.peek_words(table, PAGE_WORDS)):
            if not raw & DESC_VALID:
                continue
            desc_addr = table + index * WORD
            desc = Descriptor(raw)
            if level < 3 and desc.is_table:
                child = desc.address
                if not (evidence.backed(child)
                        and evidence.backed(child + PAGE_BYTES - WORD)):
                    report.add(
                        TABLE_TOPOLOGY, desc_addr,
                        f"table pointer to unbacked memory {child:#x}")
                    report.truncated_walks += 1
                elif geometry.in_secure(child, PAGE_BYTES):
                    report.add(
                        TABLE_TOPOLOGY, desc_addr,
                        f"table pointer into the secure region {child:#x}")
                    report.truncated_walks += 1
                else:
                    stack.append((child, level + 1))
            else:
                leaves.append((desc_addr, level, desc))
    return seen, leaves


def _leaf_findings(geometry, desc_addr, level, desc, table_pages):
    return [Finding(invariant.name, location, detail)
            for invariant in LEAF_INVARIANTS
            for location, detail in invariant.violations(
                geometry, desc_addr, level, desc, table_pages)]


def _reference_invariants(evidence):
    """``run_invariants`` as it was before fast accept: every valid
    leaf through every ``LEAF_INVARIANTS`` predicate."""
    report = InvariantReport()
    invariants._check_ttbrs(evidence, report)
    table_pages = evidence.table_pages()
    reached = set()
    for root in evidence.roots():
        seen, leaves = _reference_walk(evidence, root, report)
        for desc_addr, level, desc in leaves:
            report.leaves_checked += 1
            report.findings.extend(_leaf_findings(
                evidence.geometry, desc_addr, level, desc, table_pages))
        report.tables_walked += len(seen)
        reached |= seen
    claimed = evidence.claimed_tables()
    if claimed is not None:
        for table in sorted(reached - claimed):
            report.add(
                TABLE_TOPOLOGY, table,
                "reachable translation table is not in the registered set")
    invariants._check_tables_read_only(evidence, report, table_pages)
    invariants._check_monitored_pages(evidence, report)
    invariants._check_bitmap(evidence, report)
    return report


def _assert_fast_accept_sound(evidence):
    """Every level-3 table the filter accepts has no reference finding;
    returns ``(accepted, rejected)`` table counts."""
    geometry = evidence.geometry
    table_pages = evidence.table_pages()
    accepted = rejected = 0
    for root in evidence.roots():
        for table, level, words in walk_tables(evidence, root,
                                               InvariantReport()):
            if level != 3:
                continue
            valid = [raw for raw in words if raw & DESC_VALID]
            if not accepts_page_table(geometry, valid, table_pages):
                rejected += 1
                continue
            accepted += 1
            for index, raw in enumerate(words):
                if raw & DESC_VALID:
                    assert _leaf_findings(geometry, table + index * WORD, 3,
                                          Descriptor(raw), table_pages) == []
    return accepted, rejected


#: Leaf targets on both sides of each secure-region edge.
_SECURE_EDGES = {
    "below_secure": IMG_SECURE - PAGE_BYTES,     # last page before it
    "secure_base": IMG_SECURE,
    "secure_last": IMG_LIMIT - PAGE_BYTES,
    "secure_limit": IMG_LIMIT,                   # first page after it
}
_VIOLATING = {"secure_base", "secure_last", "wx", "table_alias"}

#: Full tables live at image pages 2..; page 0 is the root, page 1 the
#: level-2 table.
_FULL_TABLES = 3


def _full_leaf(kind, target, attrs):
    """One level-3 leaf of the given ``kind``."""
    leaf = DESC_VALID | DESC_TABLE
    data = _page(_FULL_TABLES + 2 + target)   # not a table, not secure
    if kind in _SECURE_EDGES:        # read-only, so only the edge counts
        return _SECURE_EDGES[kind] | leaf | DESC_XN
    if kind == "wx":                 # kernel W+X
        return data | leaf | DESC_AP_WRITE
    if kind == "wx_user":            # W+X, but a user page
        return data | leaf | DESC_AP_WRITE | DESC_USER
    if kind == "table_alias":        # writable alias of the root or L2
        return _page(target % 2) | leaf | DESC_AP_WRITE | DESC_XN
    if kind == "table_ro":           # read-only alias of the root or L2
        return _page(target % 2) | leaf | DESC_XN
    return data | leaf | attrs       # benign


_BENIGN_ATTRS = [DESC_XN, DESC_AP_WRITE | DESC_XN, DESC_AP_WRITE | DESC_USER,
                 DESC_XN | DESC_USER, DESC_AP_WRITE | DESC_XN | DESC_NC, 0]

_full_image = st.fixed_dictionaries({
    "tables": st.integers(1, _FULL_TABLES),
    # Seeds the 512 benign leaves of each table (too many to draw).
    "benign": st.integers(0, 2**32 - 1),
    "plants": st.lists(
        st.tuples(
            st.integers(0, _FULL_TABLES - 1),
            st.one_of(st.sampled_from([0, PAGE_WORDS - 1]),
                      st.integers(1, PAGE_WORDS - 2)),
            st.sampled_from(sorted(_SECURE_EDGES) + [
                "wx", "wx_user", "table_alias", "table_ro"]),
            st.integers(0, 20),
        ),
        max_size=3,
    ),
})


def _build_full_image(spec):
    """A root -> level-2 -> ``tables`` full level-3 tables image, with
    512 valid leaves per table and the planted leaves on top."""
    memory = PhysicalMemory()
    memory.add_range(BASE, IMG_PAGES * PAGE_BYTES)
    ntables = spec["tables"]
    tables = [_page(2 + index) for index in range(ntables)]
    memory.write_word(_page(0), _page(1) | DESC_VALID | DESC_TABLE)
    for index, table in enumerate(tables):
        memory.write_word(_page(1) + index * WORD,
                          table | DESC_VALID | DESC_TABLE)
    rng = random.Random(spec["benign"])
    for table in tables:
        for slot in range(PAGE_WORDS):
            memory.write_word(table + slot * WORD, _full_leaf(
                "benign", rng.randrange(21), rng.choice(_BENIGN_ATTRS)))
    for which, slot, kind, target in spec["plants"]:
        memory.write_word(tables[which % ntables] + slot * WORD,
                          _full_leaf(kind, target, 0))
    claimed = {_page(0), _page(1), *tables}
    return _ImageEvidence(memory, [_page(0)], claimed, {})


def _planted_violations(spec):
    """Planted kinds that survive (a later plant may overwrite one)."""
    final = {}
    for which, slot, kind, _target in spec["plants"]:
        final[(which % spec["tables"], slot)] = kind
    return sorted(kind for kind in final.values() if kind in _VIOLATING)


class TestFastAcceptAgainstPerLeafReference:
    """``run_invariants``' per-table fast accept is a filter in front of
    the shared predicates: reports match the per-leaf engine exactly,
    and an accepted table never hides a finding."""

    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_image)
    @example(spec=_HOSTILE_IMAGE)
    def test_random_images_match_reference(self, spec):
        memory, roots, claimed, expected = _build_image(spec)
        evidence = _ImageEvidence(memory, roots, claimed, expected)
        assert _summary(run_invariants(evidence)) == _summary(
            _reference_invariants(evidence))
        _assert_fast_accept_sound(evidence)

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_full_image)
    @example(spec={"tables": _FULL_TABLES, "benign": 0, "plants": []})
    def test_full_tables_match_reference(self, spec):
        evidence = _build_full_image(spec)
        report = run_invariants(evidence)
        assert _summary(report) == _summary(_reference_invariants(evidence))
        accepted, rejected = _assert_fast_accept_sound(evidence)
        assert accepted + rejected == spec["tables"]
        assert report.leaves_checked == PAGE_WORDS * spec["tables"]
        planted = _planted_violations(spec)
        assert bool(report.findings) == bool(planted)
        if not planted:
            assert accepted == spec["tables"]

    @pytest.mark.parametrize("slot", [0, 200, PAGE_WORDS - 1])
    @pytest.mark.parametrize("kind, invariant", [
        ("below_secure", None),
        ("secure_base", "NO_SECURE_MAPPING"),
        ("secure_last", "NO_SECURE_MAPPING"),
        ("secure_limit", None),
        ("wx", "W_XOR_X"),
        ("wx_user", None),
        ("table_alias", "NO_WRITABLE_TABLE_ALIAS"),
        ("table_ro", None),
    ])
    def test_planted_leaf_in_full_table(self, kind, invariant, slot):
        spec = {"tables": 2, "benign": 1, "plants": [(1, slot, kind, 1)]}
        evidence = _build_full_image(spec)
        report = run_invariants(evidence)
        assert _summary(report) == _summary(_reference_invariants(evidence))
        accepted, rejected = _assert_fast_accept_sound(evidence)
        if invariant is None:
            assert report.findings == []
            assert (accepted, rejected) == (2, 0)
        else:
            assert [(f.invariant, f.location) for f in report.findings] == [
                (invariant, _page(3) + slot * WORD)]
            assert (accepted, rejected) == (1, 1)


class TestPageTableVerdictCache:
    """``run_invariants`` reuses a level-3 table's fast-accept verdict
    only while the geometry, the audit's table pages and the table's
    valid words are all unchanged."""

    @settings(max_examples=80, deadline=None)
    @given(
        leaves=st.lists(
            st.tuples(
                st.sampled_from(sorted(_SECURE_EDGES) + [
                    "benign", "wx", "wx_user", "table_alias", "table_ro"]),
                st.integers(0, 20),
                st.sampled_from(_BENIGN_ATTRS),
            ),
            max_size=PAGE_WORDS,
        ),
        tables=st.sets(st.integers(0, IMG_PAGES - 1), max_size=8),
    )
    def test_cached_verdict_equals_accepts_page_table(self, leaves, tables):
        geometry = _ImageEvidence.geometry
        valid = [_full_leaf(kind, target, attrs)
                 for kind, target, attrs in leaves]
        table_pages = {_page(index) for index in tables}
        expected = accepts_page_table(geometry, valid, table_pages)
        for _ in range(2):   # a miss that stores, then a hit
            assert invariants._accepts_page_table_cached(
                geometry, valid, frozenset(table_pages)) == expected

    def test_registering_a_writable_target_revokes_the_verdict(self):
        evidence = _build_full_image(
            {"tables": 1, "benign": 1, "plants": []})
        assert run_invariants(evidence).clean
        table = _page(2)
        slot, raw = next(
            (slot, raw) for slot, raw in enumerate(
                evidence.peek_words(table, PAGE_WORDS))
            if raw & DESC_AP_WRITE)
        target = Descriptor(raw).address
        evidence._tables.add(target)
        report = run_invariants(evidence)
        assert _summary(report) == _summary(_reference_invariants(evidence))
        assert ("NO_WRITABLE_TABLE_ALIAS", table + slot * WORD) in [
            (f.invariant, f.location) for f in report.findings]
        assert {f.invariant for f in report.findings} == {
            "NO_WRITABLE_TABLE_ALIAS"}


_WINDOW = invariants._BITMAP_WINDOW


@pytest.fixture(scope="module")
def hostile_base():
    """A booted, monitored section-mode machine for in-place corruption."""
    return restore_from_snapshot(boot_snapshot("section"))


class TestRealChannelsBulkVsPerWord:
    """The live and snapshot channels against per-word twins, on a real
    machine whose tables and bitmap were corrupted in place."""

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1 << 16), _slots,
                st.sampled_from(["table", "unbacked", "secure", "block",
                                 "page", "junk"]),
                st.integers(0, 1 << 16), _ATTRS,
            ),
            max_size=6,
        ),
        st.lists(
            st.tuples(
                # Bitmap word indices, biased toward read-window edges.
                st.one_of(st.integers(0, 1 << 20), st.sampled_from(
                    [0, _WINDOW - 1, _WINDOW, 2 * _WINDOW - 1, -1])),
                st.integers(0, (1 << 64) - 1),
            ),
            max_size=4,
        ),
    )
    @example(
        writes=[(0, PAGE_WORDS - 1, "unbacked", 0, 0),
                (3, 0, "block", 1, DESC_AP_WRITE)],
        bitmap_writes=[(_WINDOW - 1, 1 << 63), (_WINDOW, 1), (-1, 1 << 63)],
    )
    def test_corrupted_machine_reports_identically(self, hostile_base,
                                                   writes, bitmap_writes):
        system = hostile_base
        h = system.hypersec
        bus = system.platform.bus
        tables = sorted(h.table_pages)
        dram_base = system.platform.config.dram_base
        secure_base = system.platform.secure_base
        bitmap_base, bitmap_limit = h.mbm.bitmap_storage
        bitmap_words = (bitmap_limit - bitmap_base) // WORD
        pokes = []
        for which, slot, kind, target, attrs in writes:
            addr = tables[which % len(tables)] + slot * WORD
            if kind == "table":
                value = tables[target % len(tables)] | DESC_VALID | DESC_TABLE
            elif kind == "unbacked":
                value = (system.platform.secure_limit
                         + (target % 64) * PAGE_BYTES
                         ) | DESC_VALID | DESC_TABLE
            elif kind == "secure":
                value = secure_base | DESC_VALID | DESC_TABLE
            elif kind == "block":
                # A writable block over the section holding a table page.
                section = tables[target % len(tables)] & ~(SECTION_BYTES - 1)
                value = section | DESC_VALID | DESC_AP_WRITE | attrs
            elif kind == "page":
                value = (dram_base + (target % 4096) * PAGE_BYTES
                         ) | DESC_VALID | DESC_TABLE | attrs
            else:
                value = target << 12 | attrs | 0x2
            pokes.append((addr, value))
        for index, value in bitmap_writes:  # stray and missing bits
            pokes.append((bitmap_base + (index % bitmap_words) * WORD, value))
        saved = [(addr, bus.peek(addr)) for addr, _ in pokes]
        try:
            for addr, value in pokes:
                bus.poke(addr, value)
            assert _summary(run_invariants(LiveEvidence(h))) == _summary(
                _per_word(lambda: run_invariants(_PerWordLive(h))))
            snapshot = capture_snapshot(system)
            bulk = SnapshotEvidence(snapshot)
            ref = _PerWordSnapshot(snapshot)
            assert _summary(run_invariants(bulk)) == _summary(
                _per_word(lambda: run_invariants(ref)))
            assert bulk.monitored_pages() == _per_word(ref.monitored_pages)
            assert ([bulk.table_is_empty(t) for t in tables]
                    == [ref.table_is_empty(t) for t in tables])
        finally:
            for addr, value in reversed(saved):
                bus.poke(addr, value)

    def test_snapshot_decodes_bitmap_edge_words(self, hostile_base):
        """Bits in the first word, at a read-window edge and in the last
        word of the bitmap all decode to their monitored pages."""
        system = hostile_base
        bus = system.platform.bus
        dram_base = system.platform.config.dram_base
        bitmap_base, bitmap_limit = system.hypersec.mbm.bitmap_storage
        last = (bitmap_limit - bitmap_base) // WORD - 1
        edges = [(0, 0), (_WINDOW - 1, 63), (_WINDOW, 0), (last, 63)]
        saved = [(bitmap_base + index * WORD,
                  bus.peek(bitmap_base + index * WORD))
                 for index, _ in edges]
        try:
            for index, bit in edges:
                addr = bitmap_base + index * WORD
                bus.poke(addr, bus.peek(addr) | 1 << bit)
            snapshot = capture_snapshot(system)
        finally:
            for addr, value in saved:
                bus.poke(addr, value)
        pages = SnapshotEvidence(snapshot).monitored_pages()
        for index, bit in edges:
            covered = dram_base + (index * 64 + bit) * WORD
            assert covered & ~(PAGE_BYTES - 1) in pages
