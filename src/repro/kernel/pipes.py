"""Pipes: kernel FIFO buffers between two tasks (LMbench ``pipe lat``).

A pipe write copies user data into a kernel buffer page; a read copies
it back out.  The pass-a-token latency measured by LMbench additionally
includes two context switches per round trip, orchestrated by the
workload driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import PAGE_BYTES, WORD_BYTES
from repro.errors import SimulationError
from repro.kernel.objects import PIPE
from repro.utils.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass
class Pipe:
    """One pipe: a slab bookkeeping object plus one buffer page."""

    pipe_pa: int
    buf_page: int
    fill_bytes: int = 0


class PipeManager:
    """pipe() / write / read."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.stats = StatSet("pipes")

    def create(self) -> Pipe:
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.pipe_create_base)
        pipe_pa = kernel.slab.cache(PIPE).alloc()
        buf_page = kernel.alloc_page("pipe_buf")
        write = kernel.write_field
        write(pipe_pa, PIPE, "readers", 1)
        write(pipe_pa, PIPE, "writers", 1)
        write(pipe_pa, PIPE, "head", 0)
        write(pipe_pa, PIPE, "tail", 0)
        write(pipe_pa, PIPE, "buf_page", buf_page)
        self.stats.add("created")
        return Pipe(pipe_pa=pipe_pa, buf_page=buf_page)

    def write(self, pipe: Pipe, nbytes: int) -> None:
        """Copy ``nbytes`` from user space into the pipe buffer."""
        if nbytes > PAGE_BYTES:
            raise SimulationError("pipe writes above one page unsupported")
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.pipe_rw_base)
        nwords = max(1, nbytes // WORD_BYTES)
        kernel.kwrite_block(kernel.linear_map.kva(pipe.buf_page), nwords)
        head = kernel.read_field(pipe.pipe_pa, PIPE, "head")
        kernel.write_field(pipe.pipe_pa, PIPE, "head", head + nbytes)
        pipe.fill_bytes += nbytes
        self.stats.add("writes")

    def read(self, pipe: Pipe, nbytes: int) -> int:
        """Copy up to ``nbytes`` out of the pipe buffer to user space."""
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.pipe_rw_base)
        nbytes = min(nbytes, pipe.fill_bytes)
        nwords = max(1, nbytes // WORD_BYTES)
        kernel.cpu.read_block(kernel.linear_map.kva(pipe.buf_page), nwords)
        tail = kernel.read_field(pipe.pipe_pa, PIPE, "tail")
        kernel.write_field(pipe.pipe_pa, PIPE, "tail", tail + nbytes)
        pipe.fill_bytes -= nbytes
        self.stats.add("reads")
        return nbytes
