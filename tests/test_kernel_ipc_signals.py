"""Unit tests for signals, pipes and sockets."""

import pytest

from repro.errors import SimulationError
from repro.kernel.objects import PIPE


@pytest.fixture
def system(native_system):
    native_system.spawn_init()
    return native_system


@pytest.fixture
def kernel(system):
    return system.kernel


@pytest.fixture
def task(kernel):
    return kernel.procs.current


class TestSignals:
    def test_install_records_handler(self, kernel, task):
        kernel.signals.sigaction(task, 12, 0x7000)
        assert task.sigactions[12] == 0x7000

    def test_bad_signal_number_rejected(self, kernel, task):
        with pytest.raises(SimulationError):
            kernel.signals.sigaction(task, 0, 0x7000)
        with pytest.raises(SimulationError):
            kernel.signals.sigaction(task, 65, 0x7000)

    def test_delivery_without_handler_rejected(self, kernel, task):
        with pytest.raises(SimulationError):
            kernel.signals.deliver(task, 31)

    def test_delivery_charges_time_and_counts(self, kernel, task):
        kernel.signals.sigaction(task, 10, 0x7000)
        before = kernel.platform.clock.now
        kernel.signals.deliver(task, 10)
        assert kernel.platform.clock.now > before
        assert kernel.signals.stats.get("delivered") == 1

    def test_reinstall_overwrites(self, kernel, task):
        kernel.signals.sigaction(task, 10, 0x7000)
        kernel.signals.sigaction(task, 10, 0x8000)
        assert task.sigactions[10] == 0x8000


class TestPipes:
    def test_create_initializes_bookkeeping(self, kernel, task):
        pipe = kernel.pipes.create()
        assert kernel.read_field(pipe.pipe_pa, PIPE, "readers") == 1
        assert kernel.read_field(pipe.pipe_pa, PIPE, "buf_page") == pipe.buf_page

    def test_write_then_read_moves_bytes(self, kernel, task):
        pipe = kernel.pipes.create()
        kernel.pipes.write(pipe, 64)
        assert pipe.fill_bytes == 64
        assert kernel.pipes.read(pipe, 100) == 64
        assert pipe.fill_bytes == 0

    def test_read_empty_returns_zero(self, kernel, task):
        pipe = kernel.pipes.create()
        assert kernel.pipes.read(pipe, 8) == 0

    def test_oversized_write_rejected(self, kernel, task):
        pipe = kernel.pipes.create()
        with pytest.raises(SimulationError):
            kernel.pipes.write(pipe, 8192)

    def test_head_tail_advance_in_memory(self, kernel, task):
        pipe = kernel.pipes.create()
        kernel.pipes.write(pipe, 8)
        kernel.pipes.write(pipe, 8)
        kernel.pipes.read(pipe, 8)
        assert kernel.read_field(pipe.pipe_pa, PIPE, "head") == 16
        assert kernel.read_field(pipe.pipe_pa, PIPE, "tail") == 8


class TestSockets:
    def test_socketpair_allocates_two_endpoints(self, kernel, task):
        pair = kernel.sockets.socketpair()
        assert pair.a_pa != pair.b_pa
        assert pair.a_buf != pair.b_buf

    def test_send_recv_roundtrip(self, kernel, task):
        pair = kernel.sockets.socketpair()
        kernel.sockets.send(pair, "a", 128)
        kernel.sockets.recv(pair, "a", 128)
        assert kernel.sockets.stats.get("sends") == 1
        assert kernel.sockets.stats.get("recvs") == 1

    def test_socket_costs_more_than_pipe(self, kernel, task):
        pipe = kernel.pipes.create()
        pair = kernel.sockets.socketpair()
        start = kernel.platform.clock.now
        kernel.pipes.write(pipe, 8)
        pipe_cost = kernel.platform.clock.now - start
        start = kernel.platform.clock.now
        kernel.sockets.send(pair, "a", 8)
        socket_cost = kernel.platform.clock.now - start
        assert socket_cost > pipe_cost
