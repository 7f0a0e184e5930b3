"""Unit tests for descriptor encoding and address-space layout."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import PAGE_BYTES, SECTION_BYTES
from repro.errors import SimulationError
from repro.arch.pagetable import (
    DESC_COW,
    Descriptor,
    KERNEL_VA_BASE,
    USER_VA_LIMIT,
    index_for_level,
    invalid_desc,
    make_block_desc,
    make_page_desc,
    make_table_desc,
    split_vaddr,
)


class TestDescriptorEncoding:
    def test_invalid_desc_is_invalid(self):
        assert not Descriptor(invalid_desc()).valid

    def test_table_desc(self):
        desc = Descriptor(make_table_desc(0x8010_0000))
        assert desc.valid
        assert desc.is_table
        assert desc.address == 0x8010_0000

    def test_page_desc_defaults(self):
        desc = Descriptor(make_page_desc(0x8020_0000))
        assert desc.valid
        assert desc.writable
        assert desc.cacheable
        assert not desc.executable  # XN by default
        assert not desc.user
        assert not desc.raw & DESC_COW

    def test_page_desc_attributes(self):
        raw = make_page_desc(
            0x8020_0000,
            writable=False,
            executable=True,
            cacheable=False,
            user=True,
            cow=True,
        )
        desc = Descriptor(raw)
        assert not desc.writable
        assert desc.executable
        assert not desc.cacheable
        assert desc.user
        assert desc.raw & DESC_COW

    def test_block_desc_is_not_table(self):
        desc = Descriptor(make_block_desc(0x8020_0000 & ~(SECTION_BYTES - 1)))
        assert desc.valid
        assert not desc.is_table

    def test_misaligned_page_rejected(self):
        with pytest.raises(SimulationError):
            make_page_desc(0x8020_0100)

    def test_misaligned_block_rejected(self):
        with pytest.raises(SimulationError):
            make_block_desc(0x8000_0000 + PAGE_BYTES)

    def test_address_beyond_48_bits_rejected(self):
        with pytest.raises(SimulationError):
            make_table_desc(1 << 48)

    @given(st.integers(0, (1 << 36) - 1))
    def test_page_address_roundtrip(self, frame):
        paddr = frame * PAGE_BYTES
        assert Descriptor(make_page_desc(paddr)).address == paddr


class TestAddressSpaceSplit:
    def test_user_va(self):
        space, offset = split_vaddr(0x40_0000)
        assert space == "user"
        assert offset == 0x40_0000

    def test_kernel_va(self):
        space, offset = split_vaddr(KERNEL_VA_BASE + 0x1000)
        assert space == "kernel"
        assert offset == 0x1000

    def test_hole_rejected(self):
        with pytest.raises(SimulationError):
            split_vaddr(USER_VA_LIMIT)
        with pytest.raises(SimulationError):
            split_vaddr(KERNEL_VA_BASE - 8)

    def test_boundaries(self):
        assert split_vaddr(USER_VA_LIMIT - 8)[0] == "user"
        assert split_vaddr(KERNEL_VA_BASE)[0] == "kernel"


class TestIndexing:
    def test_level_indexes_of_zero(self):
        for level in (1, 2, 3):
            assert index_for_level(0, level) == 0

    def test_level3_counts_pages(self):
        assert index_for_level(5 * PAGE_BYTES, 3) == 5

    def test_level2_counts_sections(self):
        assert index_for_level(3 * SECTION_BYTES, 2) == 3

    def test_level1_counts_gigabytes(self):
        assert index_for_level(2 << 30, 1) == 2

    def test_indexes_wrap_at_512(self):
        assert index_for_level(512 * PAGE_BYTES, 3) == 0
        assert index_for_level(512 * PAGE_BYTES, 2) == 1

    @given(st.integers(0, (1 << 39) - 1))
    def test_indexes_reconstruct_aligned_offset(self, offset):
        reconstructed = (
            (index_for_level(offset, 1) << 30)
            | (index_for_level(offset, 2) << 21)
            | (index_for_level(offset, 3) << 12)
        )
        assert reconstructed == offset & ~(PAGE_BYTES - 1)
