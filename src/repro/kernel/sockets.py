"""AF_UNIX-style socket pairs (LMbench ``socket lat``).

Structurally like a pair of pipes but with the heavier socket-layer
bookkeeping (skb management, socket locks), which is why LMbench's
socket latency exceeds its pipe latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import WORD_BYTES
from repro.kernel.objects import PIPE
from repro.utils.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass
class SocketPair:
    """A connected pair of stream sockets (two one-way channels)."""

    a_pa: int
    b_pa: int
    a_buf: int
    b_buf: int


class SocketManager:
    """socketpair() / send / recv."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.stats = StatSet("sockets")

    def socketpair(self) -> SocketPair:
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.socket_create_base)
        pair = SocketPair(
            a_pa=kernel.slab.cache(PIPE).alloc(),
            b_pa=kernel.slab.cache(PIPE).alloc(),
            a_buf=kernel.alloc_page("sock_buf"),
            b_buf=kernel.alloc_page("sock_buf"),
        )
        for pa, buf in ((pair.a_pa, pair.a_buf), (pair.b_pa, pair.b_buf)):
            kernel.write_field(pa, PIPE, "readers", 1)
            kernel.write_field(pa, PIPE, "writers", 1)
            kernel.write_field(pa, PIPE, "buf_page", buf)
        self.stats.add("created")
        return pair

    def _transfer(self, sock_pa: int, buf_page: int, nbytes: int,
                  is_send: bool) -> None:
        kernel = self.kernel
        kernel.cpu.compute(kernel.op_costs.socket_rw_base)
        # Each message cycles an sk_buff (slab page churn).
        kernel.env.page_lifecycle(1)
        nwords = max(1, nbytes // WORD_BYTES)
        kva = kernel.linear_map.kva(buf_page)
        if is_send:
            kernel.kwrite_block(kva, nwords)
        else:
            kernel.cpu.read_block(kva, nwords)
        # Socket state churn (sk_buff accounting on the PIPE layout).
        head_field = "head" if is_send else "tail"
        value = kernel.read_field(sock_pa, PIPE, head_field)
        kernel.write_field(sock_pa, PIPE, head_field, value + nbytes)
        kernel.write_field(sock_pa, PIPE, "wait_front", 1)
        kernel.write_field(sock_pa, PIPE, "wait_front", 0)

    def send(self, pair: SocketPair, endpoint: str, nbytes: int) -> None:
        """Send on endpoint ``"a"`` or ``"b"``."""
        pa, buf = (pair.a_pa, pair.a_buf) if endpoint == "a" else (pair.b_pa, pair.b_buf)
        self._transfer(pa, buf, nbytes, is_send=True)
        self.stats.add("sends")

    def recv(self, pair: SocketPair, endpoint: str, nbytes: int) -> None:
        """Receive on endpoint ``"a"`` or ``"b"``."""
        pa, buf = (pair.a_pa, pair.a_buf) if endpoint == "a" else (pair.b_pa, pair.b_buf)
        self._transfer(pa, buf, nbytes, is_send=False)
        self.stats.add("recvs")
