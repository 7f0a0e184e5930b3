"""LMbench-style micro-operation drivers (paper Table 1).

Each driver performs one kernel operation against a
:class:`~repro.core.hypernel.System` exactly as the LMbench harness
exercises it — including the orchestration LMbench's processes do
(token ping-pong through pipes/sockets with context switches, fork with
the child exiting immediately, page-fault loops over a fresh mapping).

Latency is measured on the simulation clock over ``iterations`` runs
after ``warmup`` runs (steady state: caches, TLBs and, for the KVM
configuration, stage-2 mappings are warm — matching how LMbench
reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.config import PAGE_BYTES

if TYPE_CHECKING:
    from repro.core.hypernel import System
    from repro.kernel.process import Task

#: Table 1 row names, in the paper's order.
LMBENCH_OPS = [
    "syscall stat",
    "signal install",
    "signal ovh",
    "pipe lat",
    "socket lat",
    "fork+exit",
    "fork+execv",
    "page fault",
    "mmap",
]


@dataclass
class OpResult:
    """One measured micro-operation."""

    name: str
    microseconds: float
    iterations: int


class LmbenchSuite:
    """Runs the Table 1 operations on one system.

    Each operation's driver runs ``warmup`` (or its ``EXTRA_WARMUP``)
    times, then ``iterations`` times on the simulation clock, every
    iteration simulated step by step.
    """

    def __init__(self, system: System, warmup: int = 4, iterations: int = 16):
        self.system = system
        self.warmup = warmup
        self.iterations = iterations
        self._init_task: Optional[Task] = None
        self._partner: Optional[Task] = None
        self._pipe = None
        self._sockets = None
        self._fault_vma = None
        self._fault_cursor = 0

    # ------------------------------------------------------------------
    # Environment setup (LMbench's harness work, untimed)
    # ------------------------------------------------------------------
    def setup(self) -> None:
        system = self.system
        kernel = system.kernel
        if kernel.procs.current is None:
            self._init_task = system.spawn_init()
        else:
            self._init_task = kernel.procs.current
        kernel.vfs.mkdir_p("/tmp")
        if kernel.vfs.lookup("/tmp/lmbench") is None:
            kernel.sys.creat(self._init_task, "/tmp/lmbench")
        # Partner process for the latency ping-pongs.
        self._partner = kernel.sys.fork(self._init_task)
        self._pipe = kernel.sys.pipe(self._init_task)
        self._sockets = kernel.sys.socketpair(self._init_task)
        kernel.sys.sigaction(self._init_task, 10)

    @property
    def task(self) -> Task:
        if self._init_task is None:
            raise RuntimeError("call setup() first")
        return self._init_task

    # ------------------------------------------------------------------
    # Individual operations
    # ------------------------------------------------------------------
    def op_syscall_stat(self) -> None:
        self.system.kernel.sys.stat(self.task, "/tmp/lmbench")

    def op_signal_install(self) -> None:
        self.system.kernel.sys.sigaction(self.task, 10)

    def op_signal_ovh(self) -> None:
        self.system.kernel.sys.kill_self(self.task, 10)

    def op_pipe_lat(self) -> None:
        """One-way pipe latency: half a token round trip."""
        kernel = self.system.kernel
        procs = kernel.procs
        kernel.sys.pipe_write(self.task, self._pipe, 8)
        procs.context_switch(self._partner)
        kernel.sys.pipe_read(self._partner, self._pipe, 8)
        kernel.sys.pipe_write(self._partner, self._pipe, 8)
        procs.context_switch(self.task)
        kernel.sys.pipe_read(self.task, self._pipe, 8)

    def op_socket_lat(self) -> None:
        kernel = self.system.kernel
        procs = kernel.procs
        kernel.sys.sock_send(self.task, self._sockets, "a", 8)
        procs.context_switch(self._partner)
        kernel.sys.sock_recv(self._partner, self._sockets, "a", 8)
        kernel.sys.sock_send(self._partner, self._sockets, "b", 8)
        procs.context_switch(self.task)
        kernel.sys.sock_recv(self.task, self._sockets, "b", 8)

    def op_fork_exit(self) -> None:
        kernel = self.system.kernel
        child = kernel.sys.fork(self.task)
        kernel.procs.context_switch(child)
        kernel.sys.exit(child)
        kernel.procs.context_switch(self.task)
        kernel.sys.wait(self.task)

    def op_fork_execv(self) -> None:
        kernel = self.system.kernel
        child = kernel.sys.fork(self.task)
        kernel.procs.context_switch(child)
        kernel.sys.execv(child)
        kernel.sys.exit(child)
        kernel.procs.context_switch(self.task)
        kernel.sys.wait(self.task)

    def _fresh_fault_region(self) -> None:
        kernel = self.system.kernel
        if self._fault_vma is not None:
            kernel.sys.munmap(self.task, self._fault_vma)
        self._fault_vma = kernel.sys.mmap(self.task, 256 * PAGE_BYTES)
        self._fault_cursor = 0

    def op_page_fault(self) -> None:
        """Touch one never-touched page of an anonymous mapping."""
        kernel = self.system.kernel
        if self._fault_vma is None or self._fault_cursor >= 256:
            self._fresh_fault_region()
        vaddr = self._fault_vma.start + self._fault_cursor * PAGE_BYTES
        self._fault_cursor += 1
        kernel.vmm.user_touch(self.task.mm, vaddr, is_write=True, value=1)

    def op_mmap(self) -> None:
        """Map 64 KB, touch it, unmap (lat_mmap's per-iteration work)."""
        kernel = self.system.kernel
        vma = kernel.sys.mmap(self.task, 16 * PAGE_BYTES)
        for page in range(8):
            kernel.vmm.user_touch(
                self.task.mm, vma.start + page * PAGE_BYTES,
                is_write=True, value=1,
            )
        kernel.sys.munmap(self.task, vma)

    # ------------------------------------------------------------------
    # Harness
    # ------------------------------------------------------------------
    def _driver(self, name: str) -> Callable[[], None]:
        drivers: Dict[str, Callable[[], None]] = {
            "syscall stat": self.op_syscall_stat,
            "signal install": self.op_signal_install,
            "signal ovh": self.op_signal_ovh,
            "pipe lat": self.op_pipe_lat,
            "socket lat": self.op_socket_lat,
            "fork+exit": self.op_fork_exit,
            "fork+execv": self.op_fork_execv,
            "page fault": self.op_page_fault,
            "mmap": self.op_mmap,
        }
        return drivers[name]

    #: extra warmup for ops whose steady state needs many iterations
    #: (the page-fault loop must cycle its whole region at least once so
    #: frame reuse is warm, in all three configurations).
    EXTRA_WARMUP = {"page fault": 300, "mmap": 40}

    def run_op(self, name: str) -> OpResult:
        """Measure one operation (µs per iteration, steady state)."""
        driver = self._driver(name)
        for _ in range(max(self.warmup, self.EXTRA_WARMUP.get(name, 0))):
            driver()
        clock = self.system.platform.clock
        start = clock.now
        for _ in range(self.iterations):
            driver()
        cycles = clock.elapsed_since(start)
        per_op = cycles / self.iterations
        # pipe/socket drivers above run a full round trip: report one way.
        if name in ("pipe lat", "socket lat"):
            per_op /= 2
        return OpResult(name, self.system.cycles_to_us(int(per_op)),
                        self.iterations)
