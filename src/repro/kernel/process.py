"""Processes: task/cred lifecycle, fork, exec, exit, context switch.

fork() is the page-table-heaviest kernel operation: it duplicates the
parent's address space (every child PTE installed and every writable
parent PTE re-armed for COW goes through the page-table writer — one
verified hypercall each under Hypernel), copies the credentials (cred
object writes, visible to the MBM when monitored) and reschedules.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.config import PAGE_BYTES
from repro.errors import SimulationError
from repro.kernel.objects import CRED, TASK_STRUCT
from repro.kernel.vmm import MM
from repro.utils.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass
class Task:
    """One process."""

    pid: int
    task_pa: int
    cred_pa: int
    mm: MM
    parent: Optional["Task"] = None
    name: str = "task"
    state: str = "running"
    sigactions: Dict[int, int] = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        return self.state != "dead"


class ProcessManager:
    """The kernel's process table and lifecycle operations."""

    #: pages in the default process image (text/data/stack VMAs).
    TEXT_PAGES = 24
    DATA_PAGES = 16
    STACK_PAGES = 8

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.tasks: Dict[int, Task] = {}
        self.current: Optional[Task] = None
        self._next_pid = 1
        # Freed pids are recycled lowest-first (classic UNIX pid
        # allocation).  This keeps a fork/exit-heavy steady state
        # periodic instead of letting pid values grow without bound.
        self._free_pids: List[int] = []
        self.stats = StatSet("process")

    def _alloc_pid(self) -> int:
        if self._free_pids:
            return heapq.heappop(self._free_pids)
        pid = self._next_pid
        self._next_pid += 1
        return pid

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _alloc_cred(self, uid: int, gid: int, caps: int) -> int:
        """Allocate and initialize a cred object (sensitive writes!)."""
        kernel = self.kernel
        cred_pa = kernel.slab.cache(CRED).alloc()
        write = kernel.write_field
        write(cred_pa, CRED, "usage", 1)
        for name in ("uid", "suid", "euid", "fsuid"):
            write(cred_pa, CRED, name, uid)
        for name in ("gid", "sgid", "egid", "fsgid"):
            write(cred_pa, CRED, name, gid)
        write(cred_pa, CRED, "securebits", 0)
        for name in ("cap_inheritable", "cap_permitted",
                     "cap_effective", "cap_bset"):
            write(cred_pa, CRED, name, caps)
        return cred_pa

    def _copy_cred(self, src_pa: int) -> int:
        """prepare_creds(): allocate a copy of an existing cred."""
        kernel = self.kernel
        cred_pa = kernel.slab.cache(CRED).alloc()
        for field_def in CRED.fields.values():
            for word in range(field_def.size):
                value = kernel.read_field(src_pa, CRED, field_def.name, index=word)
                kernel.write_field(cred_pa, CRED, field_def.name, value, index=word)
        kernel.write_field(cred_pa, CRED, "usage", 1)
        return cred_pa

    def _alloc_task_struct(self, pid: int, cred_pa: int, parent_pa: int) -> int:
        kernel = self.kernel
        task_pa = kernel.slab.cache(TASK_STRUCT).alloc()
        write = kernel.write_field
        write(task_pa, TASK_STRUCT, "state", 0)
        write(task_pa, TASK_STRUCT, "flags", 0)
        write(task_pa, TASK_STRUCT, "prio", 120)
        write(task_pa, TASK_STRUCT, "pid", pid)
        write(task_pa, TASK_STRUCT, "parent", parent_pa)
        write(task_pa, TASK_STRUCT, "cred", cred_pa)
        write(task_pa, TASK_STRUCT, "comm", 0x636F_6D6D)
        write(task_pa, TASK_STRUCT, "usage", 1)
        return task_pa

    def _build_image(self, mm: MM) -> None:
        """Lay out the standard text/data/stack VMAs."""
        vmm = self.kernel.vmm
        vmm.add_vma(mm, vmm.TEXT_BASE, self.TEXT_PAGES * PAGE_BYTES,
                    writable=False, kind="text")
        vmm.add_vma(mm, vmm.DATA_BASE, self.DATA_PAGES * PAGE_BYTES,
                    writable=True, kind="data")
        stack_base = vmm.STACK_TOP - self.STACK_PAGES * PAGE_BYTES
        vmm.add_vma(mm, stack_base, self.STACK_PAGES * PAGE_BYTES,
                    writable=True, kind="stack")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def spawn_init(self, touch_pages: bool = True) -> Task:
        """Create PID 1 with a fresh image and make it current."""
        kernel = self.kernel
        mm = kernel.vmm.create_mm()
        self._build_image(mm)
        cred_pa = self._alloc_cred(uid=0, gid=0, caps=(1 << 40) - 1)
        pid = self._alloc_pid()
        task_pa = self._alloc_task_struct(pid, cred_pa, 0)
        task = Task(pid=pid, task_pa=task_pa, cred_pa=cred_pa,
                    mm=mm, name="init")
        self.tasks[task.pid] = task
        self.current = task
        kernel.cpu.msr("TTBR0_EL1", mm.pgd)
        kernel.cpu.mmu.asid = mm.asid
        if touch_pages:
            self._touch_image(task)
        self.stats.add("spawned")
        return task

    def _touch_image(self, task: Task) -> None:
        """Fault in the standard image pages (program startup)."""
        vmm = self.kernel.vmm
        for page in range(self.TEXT_PAGES):
            vmm.user_touch(task.mm, vmm.TEXT_BASE + page * PAGE_BYTES)
        for page in range(self.DATA_PAGES):
            vmm.user_touch(task.mm, vmm.DATA_BASE + page * PAGE_BYTES,
                           is_write=True, value=1)
        stack_base = vmm.STACK_TOP - self.STACK_PAGES * PAGE_BYTES
        for page in range(self.STACK_PAGES):
            vmm.user_touch(task.mm, stack_base + page * PAGE_BYTES,
                           is_write=True, value=1)

    def fork(self, parent: Optional[Task] = None) -> Task:
        """fork(): duplicate the current (or given) task."""
        kernel = self.kernel
        parent = parent or self.current
        if parent is None:
            raise SimulationError("fork with no current task")
        kernel.cpu.compute(kernel.op_costs.fork_base)
        kernel.env.process_fork()
        cred_pa = self._copy_cred(parent.cred_pa)
        # Parent cred refcount blips during copy_creds (hot word).
        usage = kernel.read_field(parent.cred_pa, CRED, "usage")
        kernel.write_field(parent.cred_pa, CRED, "usage", usage + 1)
        kernel.write_field(parent.cred_pa, CRED, "usage", usage)
        pid = self._alloc_pid()
        task_pa = self._alloc_task_struct(pid, cred_pa, parent.task_pa)
        child_mm = kernel.vmm.fork_mm(parent.mm)
        child = Task(pid=pid, task_pa=task_pa, cred_pa=cred_pa,
                     mm=child_mm, parent=parent, name=f"{parent.name}-child",
                     sigactions=dict(parent.sigactions))
        self.tasks[child.pid] = child
        self.stats.add("forks")
        return child

    def execv(self, task: Task, touch_pages: int = 6) -> None:
        """execve(): replace the address space with a fresh image.

        Only the *current* task can exec (it is the one trapping into
        the kernel); drivers must context-switch to the child first.
        """
        kernel = self.kernel
        if task is not self.current:
            raise SimulationError("execv on a task that is not running")
        kernel.cpu.compute(kernel.op_costs.exec_base)
        old_mm = task.mm
        new_mm = kernel.vmm.create_mm()
        self._build_image(new_mm)
        task.mm = new_mm
        task.sigactions.clear()
        if task is self.current:
            kernel.cpu.msr("TTBR0_EL1", new_mm.pgd)
            kernel.cpu.mmu.asid = new_mm.asid
        kernel.vmm.destroy_mm(old_mm)
        # The new program faults in its first pages immediately.
        vmm = kernel.vmm
        stack_base = vmm.STACK_TOP - PAGE_BYTES
        vmm.user_touch(task.mm, vmm.TEXT_BASE)
        vmm.user_touch(task.mm, stack_base, is_write=True, value=1)
        for page in range(max(0, touch_pages - 2)):
            vmm.user_touch(task.mm, vmm.TEXT_BASE + (page + 1) * PAGE_BYTES)
        self.stats.add("execs")

    def exit(self, task: Task) -> None:
        """exit(): tear down the task and its resources."""
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.exit_base)
        if task is self.current:
            # Park user translation before the root table is freed, so
            # TTBR0 never dangles into a retired page (and Hypersec can
            # let the pgd go).
            kernel.cpu.msr("TTBR0_EL1", 0)
            kernel.cpu.mmu.asid = 0
        kernel.vmm.destroy_mm(task.mm)
        # put_cred: drop the refcount and free.
        kernel.write_field(task.cred_pa, CRED, "usage", 0)
        kernel.slab.cache(CRED).free(task.cred_pa)
        kernel.write_field(task.task_pa, TASK_STRUCT, "state", 0x10)
        kernel.slab.cache(TASK_STRUCT).free(task.task_pa)
        task.state = "dead"
        del self.tasks[task.pid]
        heapq.heappush(self._free_pids, task.pid)
        if self.current is task:
            self.current = None
        self.stats.add("exits")

    def wait(self, parent: Task) -> None:
        """waitpid(): reap (modelled as scheduler bookkeeping)."""
        self.kernel.cpu.compute(self.kernel.op_costs.wait_base)
        self.stats.add("waits")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def context_switch(self, to: Task) -> None:
        """Switch the CPU to ``to``'s address space.

        The TTBR0 write is a privileged VM-control update: under
        Hypernel it traps to Hypersec for validation (paper 5.2.2).
        """
        kernel = self.kernel
        if not to.alive:
            raise SimulationError(f"switching to dead task {to.pid}")
        kernel.cpu.compute(kernel.op_costs.context_switch_base)
        kernel.env.context_switch_overhead()
        kernel.cpu.msr("TTBR0_EL1", to.mm.pgd)
        kernel.cpu.mmu.asid = to.mm.asid
        self.current = to
        self.stats.add("context_switches")
