"""Application-benchmark models (paper Figure 6 and Table 2).

Five applications, matching the paper's set: **whetstone** and
**dhrystone** (compute-bound, a handful of kernel crossings at startup),
**untar** (metadata storm: a directory tree of small files), **iozone**
(bulk file I/O over few files) and **apache** (request loop: sockets,
stat/open/read of documents, logging, periodic CGI forks).

Each model is an operation *generator* against the simulated kernel —
the same code runs on all three system configurations, so the relative
runtimes of Figure 6 and the monitor trap counts of Table 2 come from
mechanism, not from per-configuration constants.

``scale`` shrinks the work linearly (default benchmarks use scaled-down
runs; event-count *ratios* are scale-invariant, which the test suite
asserts).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

from repro.core.hypernel import System
from repro.kernel.process import Task


@dataclass
class AppRunResult:
    """Outcome of one application run."""

    name: str
    cycles: int
    microseconds: float


class ApplicationWorkload(abc.ABC):
    """Base class: spawn-a-process + app-specific body + exit."""

    name = "app"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    def _scaled(self, value: int, minimum: int = 1) -> int:
        return max(minimum, int(round(value * self.scale)))

    # ------------------------------------------------------------------
    def prepare(self, system: System, shell: Task) -> None:
        """Pre-existing filesystem state (installed before the run)."""

    @abc.abstractmethod
    def body(self, system: System, task: Task) -> None:
        """The application's own work (runs as ``task``)."""

    # ------------------------------------------------------------------
    def run(self, system: System, shell: Optional[Task] = None) -> AppRunResult:
        """Launch the app via ``sh -c`` (two fork+execs), run it, reap it."""
        kernel = system.kernel
        if shell is None:
            shell = kernel.procs.current or system.spawn_init()
        start = system.now
        # The benchmark harness shell forks a subshell...
        subshell = kernel.sys.fork(shell)
        kernel.procs.context_switch(subshell)
        kernel.sys.execv(subshell)
        # ... which forks and execs the application itself.
        task = kernel.sys.fork(subshell)
        kernel.procs.context_switch(task)
        kernel.sys.execv(task)
        self.body(system, task)
        kernel.sys.exit(task)
        kernel.procs.context_switch(subshell)
        kernel.sys.wait(subshell)
        kernel.sys.exit(subshell)
        kernel.procs.context_switch(shell)
        kernel.sys.wait(shell)
        cycles = system.now - start
        return AppRunResult(self.name, cycles, system.cycles_to_us(cycles))

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def _startup_linking(self, system: System, task: Task, libs: int) -> None:
        """Dynamic-linker startup: stat/open shared libraries."""
        kernel = system.kernel
        for index in range(libs):
            path = f"/usr/lib/lib{index:02d}.so"
            kernel.sys.stat(task, path)
            handle = kernel.sys.open(task, path)
            kernel.sys.read(task, handle, 4096)
            kernel.sys.close(task, handle)

    def _ensure_libs(self, system: System, libs: int) -> None:
        vfs = system.kernel.vfs
        vfs.mkdir_p("/usr/lib")
        for index in range(libs):
            path = f"/usr/lib/lib{index:02d}.so"
            if vfs.lookup(path) is None:
                node = vfs.create(path)
                handle = vfs.open(path)
                vfs.write_file(handle, 16 * 1024)
                vfs.close(handle)


class WhetstoneWorkload(ApplicationWorkload):
    """Floating-point compute loop; kernel activity only at the edges."""

    name = "whetstone"
    LIBS = 6
    COMPUTE_CYCLES = 36_000_000  # ~31 ms at 1.15 GHz
    CHUNKS = 40

    def prepare(self, system: System, shell: Task) -> None:
        self._ensure_libs(system, self.LIBS)
        system.kernel.vfs.mkdir_p("/tmp")

    def body(self, system: System, task: Task) -> None:
        kernel = system.kernel
        self._startup_linking(system, task, self.LIBS)
        chunks = self._scaled(self.CHUNKS)
        per_chunk = int(self.COMPUTE_CYCLES * self.scale) // max(1, chunks)
        for _ in range(chunks):
            kernel.cpu.compute(per_chunk)
        out = kernel.sys.open(task, f"/tmp/{self.name}.out", create=True)
        kernel.sys.write(task, out, 512)
        kernel.sys.close(task, out)
        kernel.vfs.unlink(f"/tmp/{self.name}.out")


class DhrystoneWorkload(WhetstoneWorkload):
    """Integer compute loop; same structure, slightly different mix."""

    name = "dhrystone"
    LIBS = 10
    COMPUTE_CYCLES = 30_000_000
    CHUNKS = 30


class UntarWorkload(ApplicationWorkload):
    """tar -x of a source tree: the dentry-churn storm of Table 2.

    Per extracted file tar performs (see GNU tar + glibc traces):
    archive read, create, open, data write, fchmod, fchown, utimensat —
    each path-touching call walking the directory chain through the
    dentry cache.
    """

    name = "untar"
    FILES = 400
    DIR_FANOUT = 16          #: files per directory
    DEPTH = 3                #: directory nesting below /untar
    FILE_BYTES = 8 * 1024
    USER_CYCLES_PER_FILE = 9_000  #: decompression work

    def prepare(self, system: System, shell: Task) -> None:
        vfs = system.kernel.vfs
        vfs.mkdir_p("/untar")
        if vfs.lookup("/archive.tar") is None:
            node = vfs.create("/archive.tar")
            handle = vfs.open("/archive.tar")
            vfs.write_file(handle, self._scaled(self.FILES) * 512)
            vfs.close(handle)

    #: monotonically increasing extraction-directory id (unique even
    #: across workload instances sharing one filesystem).
    _next_run_id = 0

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self._run_id = 0

    def _dir_for(self, index: int) -> str:
        """Nested directory path for file ``index``."""
        bucket = index // self.DIR_FANOUT
        parts = [f"r{self._run_id}"]
        for _ in range(self.DEPTH):
            parts.append(f"d{bucket % 8}")
            bucket //= 8
        return "/untar/" + "/".join(parts)

    def body(self, system: System, task: Task) -> None:
        kernel = system.kernel
        sys = kernel.sys
        UntarWorkload._next_run_id += 1  # fresh extraction dir per run
        self._run_id = UntarWorkload._next_run_id
        archive = sys.open(task, "/archive.tar")
        files = self._scaled(self.FILES)
        made_dirs = set()
        for index in range(files):
            directory = self._dir_for(index)
            if directory not in made_dirs:
                kernel.vfs.mkdir_p(directory)
                made_dirs.add(directory)
            path = f"{directory}/f{index}.c"
            sys.read(task, archive, 512)          # archive header+data
            if index % 16 == 0:
                # Sequential archive reads come in via readahead batches.
                kernel.env.block_io(128 * 1024)
            kernel.cpu.compute(self.USER_CYCLES_PER_FILE)
            sys.creat(task, path)
            handle = sys.open(task, path)
            sys.write(task, handle, self.FILE_BYTES)
            sys.fchmod(task, handle, 0o644)
            sys.fchown(task, handle, 1000, 1000)
            sys.futimes(task, handle)
            sys.close(task, handle)
            if index % 4 == 3:
                # Dirty page-cache pages drain in writeback batches.
                kernel.env.block_io(4 * self.FILE_BYTES)
        sys.close(task, archive)


class IozoneWorkload(ApplicationWorkload):
    """Sequential write/rewrite/read/reread phases over one test file."""

    name = "iozone"
    FILE_BYTES = 4 * 1024 * 1024
    CHUNK = 128 * 1024
    PASSES = 2
    #: iozone's sequential tests: write, rewrite, read, reread, random
    #: read/write, backward read, stride read (one open/close each).
    PHASES = (True, True, False, False, False, True, False, False)
    USER_CYCLES_PER_CHUNK = 4_000

    def body(self, system: System, task: Task) -> None:
        kernel = system.kernel
        sys = kernel.sys
        file_bytes = self._scaled(self.FILE_BYTES, minimum=self.CHUNK)
        chunks = max(1, file_bytes // self.CHUNK)
        for _ in range(self.PASSES):
            path = "/tmp/iozone.tmp"
            kernel.vfs.mkdir_p("/tmp")
            sys.creat(task, path)
            for phase_is_write in self.PHASES:
                # iozone reopens the test file for every phase.
                handle = sys.open(task, path)
                written = 0
                for _ in range(chunks):
                    if phase_is_write:
                        sys.write(task, handle, self.CHUNK)
                        written += self.CHUNK
                        if written >= 1024 * 1024:
                            # Writeback drains dirty data in ~1 MB batches;
                            # re-reads are served from the page cache.
                            kernel.env.block_io(written)
                            written = 0
                    else:
                        sys.read(task, handle, self.CHUNK)
                    kernel.cpu.compute(self.USER_CYCLES_PER_CHUNK)
                if written:
                    kernel.env.block_io(written)
                sys.close(task, handle)
            sys.unlink(task, path)


class ApacheWorkload(ApplicationWorkload):
    """HTTP request loop: sockets, docroot lookups, logging, CGI forks."""

    name = "apache"
    REQUESTS = 300
    DOCS = 24
    DOC_BYTES = 4 * 1024
    CGI_EVERY = 15           #: one fork+exec per this many requests
    USER_CYCLES_PER_REQ = 14_000

    def prepare(self, system: System, shell: Task) -> None:
        vfs = system.kernel.vfs
        vfs.mkdir_p("/www/docs")
        for index in range(self.DOCS):
            path = f"/www/docs/page{index}.html"
            if vfs.lookup(path) is None:
                vfs.create(path)
                handle = vfs.open(path)
                vfs.write_file(handle, self.DOC_BYTES)
                vfs.close(handle)

    def body(self, system: System, task: Task) -> None:
        kernel = system.kernel
        sys = kernel.sys
        sockets = sys.socketpair(task)
        log = sys.open(task, "/www/access.log", create=True)
        requests = self._scaled(self.REQUESTS)
        for index in range(requests):
            kernel.env.net_io(1)                   # request arrives
            sys.sock_recv(task, sockets, "a", 256)
            path = f"/www/docs/page{index % self.DOCS}.html"
            sys.stat(task, path)
            handle = sys.open(task, path)
            sys.read(task, handle, self.DOC_BYTES)
            sys.close(task, handle)
            kernel.cpu.compute(self.USER_CYCLES_PER_REQ)
            sys.sock_send(task, sockets, "b", self.DOC_BYTES)
            kernel.env.net_io(1)                   # response leaves
            sys.write(task, log, 128)              # access log line
            if index % self.CGI_EVERY == self.CGI_EVERY - 1:
                self._cgi(system, task)
        sys.close(task, log)

    def _cgi(self, system: System, parent: Task) -> None:
        kernel = system.kernel
        sys = kernel.sys
        child = sys.fork(parent)
        kernel.procs.context_switch(child)
        sys.execv(child)
        tmp = f"/tmp/cgi{child.pid}.tmp"
        kernel.vfs.mkdir_p("/tmp")
        sys.creat(child, tmp)
        handle = sys.open(child, tmp)
        sys.write(child, handle, 1024)
        sys.close(child, handle)
        sys.unlink(child, tmp)
        sys.exit(child)
        kernel.procs.context_switch(parent)
        sys.wait(parent)


def default_applications(
    scale: float = 1.0, names: Optional[List[str]] = None,
) -> List[ApplicationWorkload]:
    """The paper's five applications, in Table 2 order; ``names``
    picks a subset, in the order given."""
    apps = [
        WhetstoneWorkload(scale),
        DhrystoneWorkload(scale),
        UntarWorkload(scale),
        IozoneWorkload(scale),
        ApacheWorkload(scale),
    ]
    if names is None:
        return apps
    by_name = {app.name: app for app in apps}
    return [by_name[name] for name in names]
