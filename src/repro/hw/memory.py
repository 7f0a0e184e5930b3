"""Sparse physical-memory model.

Memory is stored as lazily-allocated flat ``bytearray`` chunks hanging
off each installed address range.  Unwritten words read as zero,
matching DRAM that the boot firmware scrubbed.  The model is purely
functional storage: *timing* lives in :class:`~repro.hw.dram.DramModel`
and *visibility* (who gets to observe an access) lives in
:class:`~repro.hw.bus.MemoryBus`.

Multiple address ranges can be installed (e.g. motherboard DRAM plus the
LogicTile daughterboard SDRAM of the paper's section 6 setup).  Range
lookup is a bisect over the sorted bases with a one-entry "last range
hit" cache in front, so the common case — streams of accesses inside one
range — costs two integer compares.

The chunked backing keeps the sparse property of the original dict
store: a 2 GB DRAM range allocates nothing until written, a page that
was never written back to non-zero values costs no memory, and
``population()`` still reports the number of non-zero words.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.config import WORD_BYTES
from repro.errors import MemoryRangeError
from repro.utils.bitops import require_aligned

_WORD_MASK = (1 << 64) - 1

#: Bytes per backing chunk.  Must be a power of two and a multiple of
#: WORD_BYTES; 64 KB keeps per-chunk allocation cheap while bounding the
#: overhead of sparsely touched ranges.
_CHUNK_BYTES = 1 << 16
_CHUNK_SHIFT = 16
_CHUNK_MASK = _CHUNK_BYTES - 1

_ZERO_CHUNK = bytes(_CHUNK_BYTES)


class PhysicalMemory:
    """Word-addressable sparse backing store with range checking."""

    __slots__ = (
        "_ranges",
        "_bases",
        "_chunk_maps",
        "_last_base",
        "_last_limit",
        "_last_chunks",
    )

    def __init__(self):
        self._ranges: List[Tuple[int, int]] = []  # (base, limit), sorted
        self._bases: List[int] = []               # sorted bases (parallel)
        self._chunk_maps: List[Dict[int, bytearray]] = []  # parallel
        # One-entry "last range hit" cache.  The sentinel (1, 0) matches
        # no address because base > limit.
        self._last_base = 1
        self._last_limit = 0
        self._last_chunks: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    # Range management
    # ------------------------------------------------------------------
    def add_range(self, base: int, size: int) -> None:
        """Install a physical address range ``[base, base + size)``.

        Ranges may not overlap an existing one.
        """
        require_aligned(base, WORD_BYTES, "range base")
        require_aligned(size, WORD_BYTES, "range size")
        limit = base + size
        for existing_base, existing_limit in self._ranges:
            if base < existing_limit and existing_base < limit:
                raise MemoryRangeError(
                    f"range {base:#x}+{size:#x} overlaps existing "
                    f"[{existing_base:#x}, {existing_limit:#x})"
                )
        index = bisect_right(self._bases, base)
        self._bases.insert(index, base)
        self._ranges.insert(index, (base, limit))
        self._chunk_maps.insert(index, {})

    def _locate(self, paddr: int) -> Dict[int, bytearray]:
        """Resolve ``paddr`` to its range's chunk map, updating the
        last-range cache; raises :class:`MemoryRangeError` when unbacked."""
        index = bisect_right(self._bases, paddr) - 1
        if index >= 0:
            base, limit = self._ranges[index]
            if paddr < limit:
                self._last_base = base
                self._last_limit = limit
                self._last_chunks = self._chunk_maps[index]
                return self._last_chunks
        raise MemoryRangeError(f"physical address {paddr:#x} is not backed")

    def contains(self, paddr: int) -> bool:
        """True if ``paddr`` falls inside an installed range."""
        if self._last_base <= paddr < self._last_limit:
            return True
        index = bisect_right(self._bases, paddr) - 1
        return index >= 0 and paddr < self._ranges[index][1]

    def check(self, paddr: int) -> None:
        """Raise :class:`MemoryRangeError` unless ``paddr`` is installed."""
        if not self.contains(paddr):
            raise MemoryRangeError(f"physical address {paddr:#x} is not backed")

    @property
    def ranges(self) -> List[Tuple[int, int]]:
        """Installed ``(base, limit)`` pairs, sorted by base."""
        return list(self._ranges)

    # ------------------------------------------------------------------
    # Word access
    # ------------------------------------------------------------------
    def read_word(self, paddr: int) -> int:
        """Read the 64-bit word at word-aligned ``paddr``."""
        if paddr & 7:
            require_aligned(paddr, WORD_BYTES)
        if self._last_base <= paddr < self._last_limit:
            chunks = self._last_chunks
        else:
            chunks = self._locate(paddr)
        offset = paddr - self._last_base
        chunk = chunks.get(offset >> _CHUNK_SHIFT)
        if chunk is None:
            return 0
        low = offset & _CHUNK_MASK
        return int.from_bytes(chunk[low:low + 8], "little")

    def write_word(self, paddr: int, value: int) -> None:
        """Write the 64-bit word at word-aligned ``paddr``."""
        if paddr & 7:
            require_aligned(paddr, WORD_BYTES)
        if self._last_base <= paddr < self._last_limit:
            chunks = self._last_chunks
        else:
            chunks = self._locate(paddr)
        offset = paddr - self._last_base
        key = offset >> _CHUNK_SHIFT
        chunk = chunks.get(key)
        value &= _WORD_MASK
        if chunk is None:
            if not value:
                return  # stays sparse: zero is the reset value
            chunk = chunks[key] = bytearray(_CHUNK_BYTES)
        low = offset & _CHUNK_MASK
        chunk[low:low + 8] = value.to_bytes(8, "little")

    # ------------------------------------------------------------------
    # Bulk helpers (functional, used by loaders and tests)
    # ------------------------------------------------------------------
    def fill(self, paddr: int, nwords: int, value: int = 0) -> None:
        """Set ``nwords`` consecutive words starting at ``paddr``."""
        if nwords <= 0:
            return
        require_aligned(paddr, WORD_BYTES)
        chunks = (
            self._last_chunks
            if self._last_base <= paddr < self._last_limit
            else self._locate(paddr)
        )
        end = paddr + nwords * WORD_BYTES
        span_end = min(end, self._last_limit)
        value &= _WORD_MASK
        self._fill_span(chunks, paddr - self._last_base,
                        (span_end - paddr) // WORD_BYTES, value)
        if end > span_end:
            # The run crosses out of this range: fall back to per-word
            # writes, which locate (or reject) each remaining address.
            for addr in range(span_end, end, WORD_BYTES):
                self.write_word(addr, value)

    def write_words(self, paddr: int, values: Sequence[int]) -> None:
        """Store ``values`` (64-bit words) consecutively from ``paddr``."""
        if not values:
            return
        require_aligned(paddr, WORD_BYTES)
        chunks = (
            self._last_chunks
            if self._last_base <= paddr < self._last_limit
            else self._locate(paddr)
        )
        if paddr + len(values) * WORD_BYTES <= self._last_limit:
            self._write_span(chunks, paddr - self._last_base,
                             struct.pack(f"<{len(values)}Q", *values))
            return
        for index, value in enumerate(values):
            self.write_word(paddr + index * WORD_BYTES, value)

    def _fill_span(self, chunks: Dict[int, bytearray], offset: int,
                   nwords: int, value: int) -> None:
        """Fill a run that lies entirely within one range."""
        remaining = nwords * WORD_BYTES
        while remaining > 0:
            key = offset >> _CHUNK_SHIFT
            low = offset & _CHUNK_MASK
            take = min(remaining, _CHUNK_BYTES - low)
            chunk = chunks.get(key)
            if value:
                if chunk is None:
                    chunk = chunks[key] = bytearray(_CHUNK_BYTES)
                chunk[low:low + take] = value.to_bytes(8, "little") * (take // 8)
            elif chunk is not None:
                chunk[low:low + take] = _ZERO_CHUNK[:take]
            offset += take
            remaining -= take

    def read_words(self, paddr: int, nwords: int) -> List[int]:
        """Read ``nwords`` consecutive words starting at ``paddr``."""
        if nwords <= 0:
            return []
        require_aligned(paddr, WORD_BYTES)
        chunks = (
            self._last_chunks
            if self._last_base <= paddr < self._last_limit
            else self._locate(paddr)
        )
        end = paddr + nwords * WORD_BYTES
        if end <= self._last_limit:
            # Fast path: the run lies in one range; if it also lies in one
            # chunk, unpack straight from the backing bytearray (no copy).
            offset = paddr - self._last_base
            low = offset & _CHUNK_MASK
            if low + nwords * WORD_BYTES <= _CHUNK_BYTES:
                chunk = chunks.get(offset >> _CHUNK_SHIFT)
                if chunk is None:
                    return [0] * nwords
                return list(struct.unpack_from(f"<{nwords}Q", chunk, low))
        span_end = min(end, self._last_limit)
        span_words = (span_end - paddr) // WORD_BYTES
        data = self._read_span(chunks, paddr - self._last_base, span_words)
        values = list(struct.unpack(f"<{span_words}Q", data))
        if end > span_end:
            values.extend(
                self.read_word(addr) for addr in range(span_end, end, WORD_BYTES)
            )
        return values

    def _read_span(self, chunks: Dict[int, bytearray], offset: int,
                   nwords: int) -> bytes:
        """Gather the bytes of a run that lies entirely within one range."""
        pieces = []
        remaining = nwords * WORD_BYTES
        while remaining > 0:
            key = offset >> _CHUNK_SHIFT
            low = offset & _CHUNK_MASK
            take = min(remaining, _CHUNK_BYTES - low)
            chunk = chunks.get(key)
            pieces.append(
                _ZERO_CHUNK[:take] if chunk is None else bytes(chunk[low:low + take])
            )
            offset += take
            remaining -= take
        return b"".join(pieces)

    def copy_words(self, src: int, dst: int, nwords: int) -> None:
        """Copy ``nwords`` words from ``src`` to ``dst`` (non-overlapping)."""
        if nwords <= 0:
            return
        require_aligned(src, WORD_BYTES)
        require_aligned(dst, WORD_BYTES)
        nbytes = nwords * WORD_BYTES
        src_chunks = (
            self._last_chunks
            if self._last_base <= src < self._last_limit
            else self._locate(src)
        )
        src_in_range = src + nbytes <= self._last_limit
        src_offset = src - self._last_base
        if src_in_range:
            data = self._read_span(src_chunks, src_offset, nwords)
            dst_chunks = (
                self._last_chunks
                if self._last_base <= dst < self._last_limit
                else self._locate(dst)
            )
            if dst + nbytes <= self._last_limit:
                self._write_span(dst_chunks, dst - self._last_base, data)
                return
            # Destination spans ranges: unpack and store per word.
            for i, value in enumerate(struct.unpack(f"<{nwords}Q", data)):
                self.write_word(dst + i * WORD_BYTES, value)
            return
        for i in range(nwords):
            self.write_word(dst + i * WORD_BYTES,
                            self.read_word(src + i * WORD_BYTES))

    def _write_span(self, chunks: Dict[int, bytearray], offset: int,
                    data: bytes) -> None:
        """Scatter ``data`` into a run that lies entirely within one range."""
        cursor = 0
        remaining = len(data)
        while remaining > 0:
            key = offset >> _CHUNK_SHIFT
            low = offset & _CHUNK_MASK
            take = min(remaining, _CHUNK_BYTES - low)
            piece = data[cursor:cursor + take]
            chunk = chunks.get(key)
            if chunk is None:
                if piece.count(0) != take:
                    chunk = chunks[key] = bytearray(_CHUNK_BYTES)
                    chunk[low:low + take] = piece
            else:
                chunk[low:low + take] = piece
            offset += take
            cursor += take
            remaining -= take

    def population(self) -> int:
        """Number of non-zero words currently stored (for tests)."""
        total = 0
        for chunks in self._chunk_maps:
            for chunk in chunks.values():
                total += sum(1 for word in memoryview(chunk).cast("Q") if word)
        return total
