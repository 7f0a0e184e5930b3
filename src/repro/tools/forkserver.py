"""Fork-server execution backend: persistent warm workers, COW images.

The pool backend (``ProcessPoolExecutor``) pays a fixed cost per job
that has nothing to do with simulated work: spawning an interpreter,
re-importing the package, and booting (or decoding a snapshot of) the
cell's machine.  ``BENCH_simspeed.json`` shows that for paper-scale
cells this setup dominates wall-clock time.  This module removes it
with the classic "load once, fork many" pattern:

* For every distinct *environment* among the pending cells (system
  name + build arguments + platform config + optional boot snapshot),
  the client forks one long-lived **server** process.  The server
  constructs its machine exactly once — booting it, or restoring it
  in memory via :func:`repro.state.restore_from_snapshot` from a
  snapshot decoded exactly once — and then waits for work.
* For every cell, the server **forks a child**.  The child inherits
  the fully-constructed machine copy-on-write and immediately runs the
  cell's workload body (``execute_cell_on``): zero interpreter spawn,
  zero snapshot decode, zero re-boot on the hot path.
* Cells kinds without a registered environment builder (e.g. the
  test-only ``selftest`` kind) run on a shared *generic* server whose
  children call :func:`repro.tools.runner.execute_cell` directly.

Wire protocol
-------------
All pipes carry length-prefixed pickle frames: an 8-byte big-endian
length followed by the pickled tuple.  Client -> server commands are
``("run", seq, cell)`` and ``("stop",)``; server -> client results are
``("ok", seq, payload)``, ``("err", seq, message)``, ``("died", seq,
message)`` and ``("fatal", message)`` (environment construction
failed).  Children report to their server over a private pipe; the
server is the sole writer of the result pipe, so client-side frames
never interleave.

Failure contract (mirrors the pool backend, DESIGN.md §5d)
----------------------------------------------------------
* A child that raises — or is killed mid-cell — is retried **once** by
  forking a fresh child from the pristine parent image; a second
  failure raises :class:`~repro.tools.runner.RunnerError` naming the
  cell.
* A cell exceeding the per-job ``timeout`` raises ``RunnerError``
  immediately (a hung child cannot be retried without leaking it);
  every server process group is killed on the way out.
* A server that dies wholesale (environment build failure, OOM kill)
  demotes its cells to in-process serial execution — the same graceful
  degradation the pool backend applies when a pool cannot be created.

Platforms without ``os.fork`` (Windows, some sandboxes) raise
:class:`ForkServerUnavailable`; ``run_cells`` then falls back to the
pool backend.  ``REPRO_BENCH_BACKEND=pool`` forces that fallback for
CI and A/B measurement.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.tools import runner as _runner

_LEN = struct.Struct(">Q")

#: Seconds to wait for a server to exit after ("stop",) before SIGKILL.
_STOP_GRACE = 5.0


class ForkServerUnavailable(RuntimeError):
    """This platform cannot run the fork-server backend."""


def fork_available() -> bool:
    """True when ``os.fork`` exists and behaves (POSIX)."""
    return os.name == "posix" and hasattr(os, "fork")


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------
def _send_frame(fd: int, obj: Any) -> None:
    """Write one length-prefixed pickle frame (blocking, complete)."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _LEN.pack(len(blob)) + blob
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


class _FrameBuffer:
    """Reassembles frames from a nonblocking stream of pipe reads."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Any]:
        self._buf += data
        frames: List[Any] = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buf)
            end = _LEN.size + length
            if len(self._buf) < end:
                return frames
            blob = bytes(self._buf[_LEN.size:end])
            del self._buf[:end]
            frames.append(pickle.loads(blob))


def _decode_single_frame(buf: bytes) -> Optional[Any]:
    """Decode exactly one complete frame, or ``None`` if truncated."""
    if len(buf) < _LEN.size:
        return None
    (length,) = _LEN.unpack_from(buf)
    if len(buf) < _LEN.size + length:
        return None
    try:
        return pickle.loads(bytes(buf[_LEN.size:_LEN.size + length]))
    except Exception:
        return None


# ----------------------------------------------------------------------
# Environment grouping
# ----------------------------------------------------------------------
def environment_key(cell) -> Tuple:
    """Grouping key: cells with equal keys share one warm server.

    Environment servers require both a prototype builder and an
    on-system executor for the cell's kind; everything else lands on
    the shared generic server (children build their own state).
    """
    if (cell.kind in _runner.KIND_PROTOTYPES
            and cell.kind in _runner.KIND_ON_SYSTEM):
        import dataclasses
        import json

        config = (dataclasses.asdict(cell.platform_config)
                  if cell.platform_config is not None else None)
        return (
            "env",
            cell.kind,
            cell.environment,
            json.dumps(config, sort_keys=True),
            cell.snapshot_path or "",
        )
    return ("generic",)


def _build_prototype(cell):
    """Construct the pristine machine a server forks children from.

    Warm-start cells restore through the in-memory entry point — the
    snapshot file is decoded once here and never touched again.
    """
    if cell.snapshot_path:
        from repro import state
        from repro.errors import SnapshotError

        snapshot = state.load_snapshot(cell.snapshot_path)
        expect = cell.spec.get("boot_snapshot")
        if expect and snapshot.content_hash != expect:
            raise SnapshotError(
                f"{cell.snapshot_path}: content hash "
                f"{snapshot.content_hash[:12]}… does not match the "
                f"expected {expect[:12]}…"
            )
        return state.restore_from_snapshot(snapshot)
    return _runner.resolve_hook(_runner.KIND_PROTOTYPES[cell.kind])(cell)


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _describe_status(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"worker killed by signal {os.WTERMSIG(status)}"
    if os.WIFEXITED(status):
        return f"worker exited with status {os.WEXITSTATUS(status)}"
    return f"worker ended with wait status {status}"


def _child_main(result_fd: int, cell, system, run_on) -> None:
    """Execute one cell in a freshly forked child; never returns.

    The payload travels back verbatim — including the ``"metrics"``
    observability report the workload body attaches (see repro.obs),
    so run-integrity enforcement happens once, in ``run_cells``, with
    identical semantics across the serial, pool and fork backends.
    """
    try:
        try:
            if system is not None:
                payload = run_on(cell, system)
            else:
                payload = _runner.execute_cell(cell)
            frame = ("ok-local", payload)
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            frame = ("err-local", f"{exc!r}")
        try:
            _send_frame(result_fd, frame)
        except BaseException:
            pass
        try:
            os.close(result_fd)
        except OSError:
            pass
    finally:
        # Skip interpreter teardown: atexit hooks, stdio flushing and
        # GC belong to the forked parent image, not to this worker.
        os._exit(0)


def _server_main(cmd_fd: int, res_fd: int, sample_cell) -> None:
    """Body of a server process; exits via ``os._exit`` only."""
    try:
        os.setpgid(0, 0)  # own process group: killable with children
    except OSError:
        pass
    try:
        system = None
        run_on = None
        if sample_cell is not None:
            system = _build_prototype(sample_cell)
            run_on = _runner.resolve_hook(
                _runner.KIND_ON_SYSTEM[sample_cell.kind]
            )
    except BaseException as exc:  # noqa: BLE001 - reported to client
        try:
            _send_frame(res_fd, ("fatal", f"{exc!r}"))
        except BaseException:
            pass
        os._exit(1)

    commands = _FrameBuffer()
    # child read fd -> [pid, seq, bytearray of the child's result frame]
    children: Dict[int, List[Any]] = {}
    stopping = False
    while not (stopping and not children):
        watched = list(children)
        if not stopping:
            watched.append(cmd_fd)
        readable, _, _ = select.select(watched, [], [])
        for fd in readable:
            if fd == cmd_fd:
                data = os.read(cmd_fd, 65536)
                if not data:
                    stopping = True  # client hung up
                    continue
                for frame in commands.feed(data):
                    if frame[0] == "stop":
                        stopping = True
                        continue
                    _, seq, cell = frame
                    child_r, child_w = os.pipe()
                    pid = os.fork()
                    if pid == 0:
                        os.close(child_r)
                        os.close(cmd_fd)
                        os.close(res_fd)
                        for sibling_fd in list(children):
                            os.close(sibling_fd)
                        _child_main(child_w, cell, system, run_on)
                    os.close(child_w)
                    children[child_r] = [pid, seq, bytearray()]
            else:
                data = os.read(fd, 65536)
                record = children[fd]
                if data:
                    record[2] += data
                    continue
                os.close(fd)
                pid, seq, buf = children.pop(fd)
                _, status = os.waitpid(pid, 0)
                frame = _decode_single_frame(bytes(buf))
                if frame is not None and frame[0] == "ok-local":
                    out = ("ok", seq, frame[1])
                elif frame is not None and frame[0] == "err-local":
                    out = ("err", seq, frame[1])
                else:
                    out = ("died", seq, _describe_status(status))
                try:
                    _send_frame(res_fd, out)
                except BrokenPipeError:
                    stopping = True
    os._exit(0)


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class _Server:
    """Client-side handle on one forked server process."""

    def __init__(self, key: Tuple, sample_cell):
        self.key = key
        cmd_r, cmd_w = os.pipe()
        res_r, res_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(cmd_w)
                os.close(res_r)
                _server_main(cmd_r, res_w, sample_cell)
            finally:
                os._exit(1)
        os.close(cmd_r)
        os.close(res_w)
        try:
            os.setpgid(pid, pid)  # double-set: beat the race with the child
        except OSError:
            pass
        self.pid = pid
        self.cmd_fd = cmd_w
        self.res_fd = res_r
        self.frames = _FrameBuffer()
        self.queue: deque = deque()  # cell indices awaiting dispatch
        self.alive = True
        self.reaped = False

    def dispatch(self, seq: int, cell) -> None:
        _send_frame(self.cmd_fd, ("run", seq, cell))

    def request_stop(self) -> None:
        if not self.alive:
            return
        try:
            _send_frame(self.cmd_fd, ("stop",))
        except OSError:
            pass
        try:
            os.close(self.cmd_fd)
        except OSError:
            pass
        self.alive = False

    def mark_dead(self) -> None:
        if self.alive:
            try:
                os.close(self.cmd_fd)
            except OSError:
                pass
            self.alive = False

    def kill(self) -> None:
        self.mark_dead()
        for target in (lambda: os.killpg(self.pid, signal.SIGKILL),
                       lambda: os.kill(self.pid, signal.SIGKILL)):
            try:
                target()
                break
            except (ProcessLookupError, PermissionError, OSError):
                continue

    def reap(self, deadline: Optional[float] = None) -> None:
        """Collect the server's exit status (poll until ``deadline``)."""
        if self.reaped:
            return
        while True:
            try:
                pid, _ = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:
                break
            if pid:
                break
            if deadline is None or time.monotonic() >= deadline:
                self.kill()
                try:
                    os.waitpid(self.pid, 0)
                except ChildProcessError:
                    pass
                break
            time.sleep(0.01)
        self.reaped = True
        try:
            os.close(self.res_fd)
        except OSError:
            pass


class _Inflight:
    __slots__ = ("index", "server", "deadline", "first_error")

    def __init__(self, index: int, server: _Server,
                 deadline: Optional[float], first_error: Optional[str]):
        self.index = index
        self.server = server
        self.deadline = deadline
        self.first_error = first_error


class ForkServerPool:
    """A long-lived, re-entrant pool of warm fork servers.

    The one-shot :func:`run_pending` path pays the environment boot for
    every invocation; this class keeps the servers — and therefore the
    fully-constructed machine images they fork children from — alive
    across calls.  The first :meth:`run_indices` call that needs an
    environment forks its server; every later cell for the same
    environment key lands on the warm server, so boot cost is amortized
    across calls.

    Failure containment differs from the one-shot path in one way: an
    error confined to a single call (a cell that failed its retry, a
    per-job timeout) must not tear down servers other jobs are using.
    A timeout kills and evicts only the servers with overdue children;
    a failed-after-retry raise leaves every server warm.  Anything
    unexpected still closes the whole pool, matching the one-shot
    contract.

    Not thread-safe: callers serialize calls.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None):
        if not fork_available():
            raise ForkServerUnavailable(
                "os.fork is not available on this platform"
            )
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.servers: Dict[Tuple, _Server] = {}
        self.closed = False
        # Pool-lifetime monotonic sequence: a child abandoned by a
        # timed-out call may deliver its frame during a *later* call;
        # never reusing sequence numbers makes stale frames drop
        # harmlessly instead of corrupting another cell's slot.
        self._seq = 0

    # ------------------------------------------------------------------
    def _ensure_server(self, key: Tuple, sample_cell) -> _Server:
        server = self.servers.get(key)
        if server is not None and server.alive:
            return server
        if server is not None:  # dead handle from an earlier demotion
            self.servers.pop(key, None)
        try:
            server = _Server(key, sample_cell if key[0] == "env" else None)
        except OSError as exc:
            raise ForkServerUnavailable(
                f"could not fork a server process: {exc}"
            ) from exc
        self.servers[key] = server
        return server

    def _evict(self, server: _Server) -> None:
        """Kill one server and forget it (a later call re-creates it)."""
        server.kill()
        server.reap(deadline=time.monotonic())
        self.servers.pop(server.key, None)

    def _sanitize(self) -> None:
        """Drop queued-but-undispatched work after an aborted call."""
        for server in self.servers.values():
            server.queue.clear()

    def close(self, kill: bool = False) -> None:
        """Stop every server (gracefully unless ``kill``) and reap it."""
        for server in self.servers.values():
            if kill:
                server.kill()
            else:
                server.request_stop()
        grace = time.monotonic() + (0.0 if kill else _STOP_GRACE)
        for server in self.servers.values():
            server.reap(deadline=grace)
        self.servers.clear()
        self.closed = True

    # ------------------------------------------------------------------
    def run_indices(
        self, cells: List, pending: List[int]
    ) -> Dict[int, Dict[str, Any]]:
        """Execute ``cells[i]`` for every ``i`` in ``pending``.

        Returns ``{index: payload}``.  Raises
        :class:`~repro.tools.runner.RunnerError` on timeout or a cell
        that failed its retry (the pool survives both), and
        :class:`ForkServerUnavailable` when a server cannot be forked
        (the pool is closed).
        """
        if self.closed:
            raise ForkServerUnavailable("fork-server pool is closed")
        if not pending:
            return {}
        timeout = self.timeout
        results: Dict[int, Dict[str, Any]] = {}
        inflight: Dict[int, _Inflight] = {}
        # index -> (first error, retry error); raised — lowest index
        # first, matching the pool backend's cell-order iteration —
        # once all in-flight work has drained.
        failed: Dict[int, Tuple[str, str]] = {}

        def demote_to_serial(server: _Server, message: str) -> None:
            """A server died: run its remaining cells in-process."""
            orphans = [rec.index for rec in inflight.values()
                       if rec.server is server]
            for seq in [s for s, rec in inflight.items()
                        if rec.server is server]:
                del inflight[seq]
            orphans.extend(server.queue)
            server.queue.clear()
            server.mark_dead()
            server.reap(deadline=time.monotonic())
            self.servers.pop(server.key, None)
            for index in orphans:
                results[index] = _runner._run_serial(cells[index])

        def dispatch(server: _Server, index: int,
                     first_error: Optional[str]) -> None:
            seq = self._seq
            self._seq += 1
            deadline = (time.monotonic() + timeout) if timeout else None
            try:
                server.dispatch(seq, cells[index])
            except (BrokenPipeError, OSError):
                # The index is in neither ``inflight`` nor the queue
                # right now; requeue it so the demotion path picks it up.
                server.queue.appendleft(index)
                demote_to_serial(server, "fork server hung up")
                return
            inflight[seq] = _Inflight(index, server, deadline, first_error)

        def pump() -> None:
            """Round-robin dispatch until ``jobs`` cells are in flight."""
            while len(inflight) < self.jobs:
                progressed = False
                for server in list(self.servers.values()):
                    if len(inflight) >= self.jobs:
                        break
                    if server.alive and server.queue:
                        dispatch(server, server.queue.popleft(), None)
                        progressed = True
                if not progressed:
                    break

        try:
            for index in pending:
                key = environment_key(cells[index])
                server = self._ensure_server(key, cells[index])
                server.queue.append(index)

            pump()
            while inflight:
                now = time.monotonic()
                deadlines = [rec.deadline for rec in inflight.values()
                             if rec.deadline is not None]
                wait: Optional[float] = None
                if deadlines:
                    wait = max(0.0, min(deadlines) - now)
                fds = {server.res_fd: server
                       for server in self.servers.values()
                       if not server.reaped}
                readable, _, _ = select.select(list(fds), [], [], wait)
                if not readable:
                    # Deadline expired with nothing to read: kill and
                    # evict only the servers with overdue children, so
                    # the rest of the pool stays warm for other jobs.
                    now = time.monotonic()
                    victim = None
                    for rec in list(inflight.values()):
                        if rec.deadline is not None and now >= rec.deadline:
                            victim = victim or cells[rec.index]
                            self._evict(rec.server)
                    if victim is not None:
                        raise _runner.RunnerError(
                            f"cell {victim.label()} timed out after "
                            f"{timeout:.0f}s",
                            victim,
                        )
                    continue
                for fd in readable:
                    server = fds[fd]
                    data = os.read(fd, 65536)
                    if not data:
                        demote_to_serial(server, "fork server died")
                        continue
                    for frame in server.frames.feed(data):
                        tag = frame[0]
                        if tag == "fatal":
                            demote_to_serial(
                                server,
                                f"environment setup failed: {frame[1]}",
                            )
                            continue
                        _, seq, body = frame
                        rec = inflight.pop(seq, None)
                        if rec is None:
                            continue  # late frame: abandoned retry or
                            # a child left behind by a timed-out call
                        if tag == "ok":
                            results[rec.index] = body
                            continue
                        # "err"/"died": one retry from the pristine image.
                        if rec.first_error is not None:
                            failed[rec.index] = (rec.first_error, body)
                            continue
                        dispatch(rec.server, rec.index, first_error=body)
                pump()
            if failed:
                index = min(failed)
                first, second = failed[index]
                cell = cells[index]
                raise _runner.RunnerError(
                    f"cell {cell.label()} failed after retry: {second} "
                    f"(first attempt: {first})",
                    cell,
                )
        except _runner.RunnerError:
            # Per-call failure: the pool survives.  Queued-but-never-
            # dispatched indices are dropped (the caller sees the
            # exception, not partial results); abandoned in-flight
            # children finish in their servers and their frames are
            # discarded as stale sequence numbers.
            self._sanitize()
            raise
        except BaseException:
            self.close(kill=True)
            raise
        return results


def run_pending(
    cells: List,
    pending: List[int],
    jobs: int,
    timeout: Optional[float],
) -> Dict[int, Dict[str, Any]]:
    """Execute ``cells[i]`` for every ``i`` in ``pending``; see module doc.

    One-shot wrapper over :class:`ForkServerPool`: servers live for the
    duration of this call only.  Returns ``{index: payload}``.  Raises
    :class:`ForkServerUnavailable` when the platform cannot fork, and
    :class:`~repro.tools.runner.RunnerError` on timeout or a cell that
    failed its retry.
    """
    if not pending:
        if not fork_available():
            raise ForkServerUnavailable(
                "os.fork is not available on this platform"
            )
        return {}
    pool = ForkServerPool(jobs=jobs, timeout=timeout)
    try:
        results = pool.run_indices(cells, pending)
    except BaseException:
        pool.close(kill=True)
        raise
    pool.close(kill=False)
    return results
