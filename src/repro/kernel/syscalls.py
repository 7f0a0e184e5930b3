"""The syscall layer: EL0 -> EL1 entry/exit costs around kernel services.

Workload drivers call these instead of kernel subsystems directly so
that every operation pays the architectural syscall entry/exit and
dispatch costs, as LMbench's measurements do.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.kernel.objects import CRED as _CRED
from repro.kernel.objects import INODE as _INODE
from repro.kernel.pipes import Pipe
from repro.kernel.process import Task
from repro.kernel.sockets import SocketPair
from repro.kernel.vfs import FileHandle
from repro.utils.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

#: words copied out by stat() into the user's statbuf.
STATBUF_WORDS = 16


class SyscallLayer:
    """User-facing system-call interface of one kernel."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.stats = StatSet("syscalls")

    # ------------------------------------------------------------------
    def _enter(self, name: str) -> None:
        kernel = self.kernel
        kernel.cpu.compute(kernel.costs.svc_entry + kernel.op_costs.syscall_dispatch)
        self.stats.add(name)
        self.stats.add("total")

    def _exit(self) -> None:
        self.kernel.cpu.compute(self.kernel.costs.svc_exit)

    # ------------------------------------------------------------------
    # Filesystem
    # ------------------------------------------------------------------
    def stat(self, task: Task, path: str) -> Optional[Dict[str, int]]:
        """stat(2): path lookup + attribute read + statbuf copy-out."""
        self._enter("stat")
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.stat_base)
        node = kernel.vfs.lookup(path)
        attrs = None
        if node is not None:
            attrs = kernel.vfs.getattr(node)
            # copy_to_user of the statbuf (user stack area).
            sp = kernel.vmm.STACK_TOP - 0x800
            kernel.vmm.user_touch(task.mm, sp, is_write=True, value=0)
            kernel.cpu.write_block(sp, STATBUF_WORDS, el=0)
        self._exit()
        return attrs

    def open(self, task: Task, path: str, create: bool = False) -> FileHandle:
        self._enter("open")
        self.kernel.cpu.compute(self.kernel.op_costs.open_base)
        handle = self.kernel.vfs.open(path, create=create)
        self._exit()
        return handle

    def close(self, task: Task, handle: FileHandle) -> None:
        self._enter("close")
        self.kernel.cpu.compute(self.kernel.op_costs.close_base)
        self.kernel.vfs.close(handle)
        self._exit()

    def read(self, task: Task, handle: FileHandle, nbytes: int) -> int:
        self._enter("read")
        self.kernel.cpu.compute(self.kernel.op_costs.rw_base)
        count = self.kernel.vfs.read_file(handle, nbytes)
        self._exit()
        return count

    def write(self, task: Task, handle: FileHandle, nbytes: int) -> None:
        self._enter("write")
        self.kernel.cpu.compute(self.kernel.op_costs.rw_base)
        self.kernel.vfs.write_file(handle, nbytes)
        self._exit()

    def creat(self, task: Task, path: str, mode: int = 0o644) -> None:
        self._enter("creat")
        self.kernel.cpu.compute(self.kernel.op_costs.create_base)
        uid = self.kernel.read_field(task.cred_pa, _CRED, "fsuid")
        self.kernel.vfs.create(path, mode=mode, uid=uid)
        self._exit()

    def unlink(self, task: Task, path: str) -> None:
        self._enter("unlink")
        self.kernel.cpu.compute(self.kernel.op_costs.unlink_base)
        self.kernel.vfs.unlink(path)
        self._exit()

    # fd-based attribute calls (no path walk — what tar actually uses).
    def fchmod(self, task: Task, handle: FileHandle, mode: int) -> None:
        self._enter("fchmod")
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.attr_base)
        kernel.write_field(handle.node.inode_pa, _INODE, "i_mode", mode)
        self._exit()

    def fchown(self, task: Task, handle: FileHandle, uid: int, gid: int) -> None:
        self._enter("fchown")
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.attr_base)
        kernel.write_field(handle.node.inode_pa, _INODE, "i_uid", uid)
        kernel.write_field(handle.node.inode_pa, _INODE, "i_gid", gid)
        self._exit()

    def futimes(self, task: Task, handle: FileHandle) -> None:
        self._enter("futimes")
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.attr_base)
        kernel.write_field(handle.node.inode_pa, _INODE, "i_mtime",
                           kernel.uptime())
        self._exit()

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def fork(self, task: Task) -> Task:
        self._enter("fork")
        child = self.kernel.procs.fork(task)
        self._exit()
        return child

    def execv(self, task: Task) -> None:
        self._enter("execv")
        self.kernel.procs.execv(task)
        self._exit()

    def exit(self, task: Task) -> None:
        self._enter("exit")
        self.kernel.procs.exit(task)
        # no _exit(): the task never returns to user space.

    def wait(self, task: Task) -> None:
        self._enter("wait")
        self.kernel.procs.wait(task)
        self._exit()

    # ------------------------------------------------------------------
    # Credentials
    # ------------------------------------------------------------------
    def setuid(self, task: Task, uid: int) -> None:
        """setuid(2): the authorized way for sensitive cred words to
        change — the kernel announces the update on the object hooks'
        behalf via ``authorized_cred_update``."""
        self._enter("setuid")
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.attr_base)
        for name in ("uid", "euid", "suid", "fsuid"):
            # write_field announces the authorized update itself.
            kernel.write_field(task.cred_pa, _CRED, name, uid)
        self._exit()

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def sigaction(self, task: Task, signum: int, handler: int = 0x4000_1000) -> None:
        self._enter("sigaction")
        self.kernel.signals.sigaction(task, signum, handler)
        self._exit()

    def kill_self(self, task: Task, signum: int) -> None:
        self._enter("kill")
        self.kernel.signals.deliver(task, signum)
        self._exit()

    # ------------------------------------------------------------------
    # Pipes / sockets
    # ------------------------------------------------------------------
    def pipe(self, task: Task) -> Pipe:
        self._enter("pipe")
        result = self.kernel.pipes.create()
        self._exit()
        return result

    def pipe_write(self, task: Task, pipe: Pipe, nbytes: int) -> None:
        self._enter("write")
        self.kernel.pipes.write(pipe, nbytes)
        self._exit()

    def pipe_read(self, task: Task, pipe: Pipe, nbytes: int) -> int:
        self._enter("read")
        count = self.kernel.pipes.read(pipe, nbytes)
        self._exit()
        return count

    def socketpair(self, task: Task) -> SocketPair:
        self._enter("socketpair")
        result = self.kernel.sockets.socketpair()
        self._exit()
        return result

    def sock_send(self, task: Task, pair: SocketPair, endpoint: str, nbytes: int) -> None:
        self._enter("send")
        self.kernel.sockets.send(pair, endpoint, nbytes)
        self._exit()

    def sock_recv(self, task: Task, pair: SocketPair, endpoint: str, nbytes: int) -> None:
        self._enter("recv")
        self.kernel.sockets.recv(pair, endpoint, nbytes)
        self._exit()

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def mmap(self, task: Task, nbytes: int, writable: bool = True):
        """mmap(2): create an anonymous mapping; pages fault in on touch."""
        self._enter("mmap")
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.mmap_base)
        start = self._mmap_cursor(task)
        vma = kernel.vmm.add_vma(task.mm, start, nbytes, writable, "anon")
        self._exit()
        return vma

    def munmap(self, task: Task, vma) -> None:
        self._enter("munmap")
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.munmap_base)
        kernel.vmm.remove_vma(task.mm, vma)
        self._exit()

    def _mmap_cursor(self, task: Task) -> int:
        """Next free address in the mmap area (top-down like Linux)."""
        base = self.kernel.vmm.MMAP_BASE
        end = max(
            [vma.end for vma in task.mm.vmas if vma.kind == "anon"] + [base]
        )
        return end
