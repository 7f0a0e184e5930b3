"""Shared test utilities: small platforms, hand-built page tables and
the ``selftest`` cell kind for the runner's own tests."""

from __future__ import annotations

import os
import pathlib
import signal
import time

from repro.config import PAGE_BYTES, PlatformConfig
from repro.hw.platform import Platform
from repro.arch.cpu import CPUCore
from repro.arch.pagetable import (
    KERNEL_VA_BASE,
    index_for_level,
    make_block_desc,
    make_page_desc,
    make_table_desc,
    split_vaddr,
)
from repro.arch.registers import SCTLR_M


def small_config(**overrides) -> PlatformConfig:
    """A 64 MB platform that keeps tests fast."""
    defaults = dict(
        dram_bytes=64 * 1024 * 1024,
        secure_bytes=8 * 1024 * 1024,
    )
    defaults.update(overrides)
    return PlatformConfig(**defaults)


def small_platform(**overrides) -> Platform:
    return Platform(small_config(**overrides))


class TableBuilder:
    """Builds translation tables directly in simulated memory.

    A bump allocator carves table pages out of a caller-supplied physical
    region; descriptors are written with the bus backdoor (no timing) so
    tests can focus on the walker's behaviour.
    """

    def __init__(self, platform: Platform, pool_base: int):
        self.platform = platform
        self._next_page = pool_base
        self.root = self.alloc_page()

    def alloc_page(self) -> int:
        paddr = self._next_page
        self._next_page += PAGE_BYTES
        for offset in range(0, PAGE_BYTES, 8):
            self.platform.bus.poke(paddr + offset, 0)
        return paddr

    def _desc_addr(self, table: int, offset: int, level: int) -> int:
        return table + index_for_level(offset, level) * 8

    def _walk_to(self, offset: int, leaf_level: int) -> int:
        """Descend (creating tables) to the table holding the leaf."""
        table = self.root
        for level in (1, 2):
            if level == leaf_level:
                return table
            desc_addr = self._desc_addr(table, offset, level)
            raw = self.platform.bus.peek(desc_addr)
            if raw & 1:
                table = raw & ~0xFFF & ((1 << 48) - 1)
            else:
                new_table = self.alloc_page()
                self.platform.bus.poke(desc_addr, make_table_desc(new_table))
                table = new_table
        return table

    def map_page(self, vaddr: int, paddr: int, **attrs) -> None:
        """Map one 4 KB page at ``vaddr``."""
        _, offset = split_vaddr(vaddr)
        table = self._walk_to(offset, leaf_level=3)
        desc_addr = self._desc_addr(table, offset, 3)
        self.platform.bus.poke(desc_addr, make_page_desc(paddr, **attrs))

    def map_block(self, vaddr: int, paddr: int, **attrs) -> None:
        """Map one 2 MB block at ``vaddr``."""
        _, offset = split_vaddr(vaddr)
        table = self._walk_to(offset, leaf_level=2)
        desc_addr = self._desc_addr(table, offset, 2)
        self.platform.bus.poke(desc_addr, make_block_desc(paddr, **attrs))

    def map_range(self, vaddr: int, paddr: int, nbytes: int, **attrs) -> None:
        """Map a page-aligned range with 4 KB pages."""
        for off in range(0, nbytes, PAGE_BYTES):
            self.map_page(vaddr + off, paddr + off, **attrs)


def cpu_with_kernel_map(platform: Platform | None = None):
    """A CPU whose TTBR1 linearly maps all of DRAM at KERNEL_VA_BASE.

    Returns ``(cpu, builder)``; the builder's pool sits in the last
    non-secure megabyte of DRAM.
    """
    platform = platform or small_platform()
    pool = platform.secure_base - 4 * 1024 * 1024
    builder = TableBuilder(platform, pool)
    base = platform.config.dram_base
    # Map DRAM below the table pool with 2 MB blocks for brevity.
    for off in range(0, pool - base, 2 * 1024 * 1024):
        builder.map_block(KERNEL_VA_BASE + off, base + off, writable=True)
    cpu = CPUCore(platform)
    cpu.regs.write("TTBR1_EL1", builder.root)
    cpu.regs.set_bits("SCTLR_EL1", SCTLR_M)
    return cpu, builder


def kva(platform: Platform, paddr: int) -> int:
    """Kernel linear-map VA for a physical address."""
    return KERNEL_VA_BASE + (paddr - platform.config.dram_base)


#: The report a clean ``selftest`` payload carries: no MBM, no checks.
CLEAN_METRICS = {"system": "selftest", "sim_cycles": 0}


def _selftest_payload(value, metrics=CLEAN_METRICS, **extra) -> dict:
    payload = {"value": value, "accesses": 0, "sim_cycles": 0, **extra}
    if metrics is not None:
        payload["metrics"] = metrics
    return payload


def execute_selftest_cell(cell) -> dict:
    """Executor for the ``selftest`` cell kind (see the ``selftest_kind``
    fixture): echoes, fails, fails once (marker file), sleeps or kills
    its worker on demand.

    An echo carries ``spec["metrics"]`` as its report when the spec has
    one (``None`` leaves the report out), else :data:`CLEAN_METRICS`.
    """
    from repro.errors import RunnerError

    mode = cell.spec.get("mode", "echo")
    if mode == "echo":
        return _selftest_payload(cell.spec.get("value"),
                                 cell.spec.get("metrics", CLEAN_METRICS))
    if mode == "fail":
        raise RuntimeError(f"injected failure for {cell.label()}")
    if mode == "fail_until_marker":
        marker = pathlib.Path(cell.spec["marker"])
        if not marker.exists():
            marker.write_text("first attempt failed\n")
            raise RuntimeError(f"injected first-attempt failure for {cell.label()}")
        return _selftest_payload("ok on a later attempt")
    if mode == "sleep":
        time.sleep(float(cell.spec.get("seconds", 1.0)))
        return _selftest_payload("slept")
    if mode == "kill_until_marker":
        # Pool fault injection: SIGKILL the worker mid-cell on the
        # first attempt (no exception, no cleanup — the worker just
        # vanishes).  Only meaningful in a pooled run; in a serial run
        # this would kill the caller.  ``pid`` shows where the retry ran.
        marker = pathlib.Path(cell.spec["marker"])
        if not marker.exists():
            marker.write_text("first attempt killed\n")
            os.kill(os.getpid(), signal.SIGKILL)
        return _selftest_payload("ok after kill", pid=os.getpid())
    raise RunnerError(f"unknown selftest mode {mode!r}", cell)
