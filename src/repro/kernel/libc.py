"""newlib-style libc layer.

The libc the paper's user code links against (Redis links newlib).  It
provides:

* blocking socket wrappers (generator-based: they poll the stack and
  yield to the scheduler until data arrives — this is where the app <->
  scheduler communication the Redis evaluation measures comes from);
* string/memory helpers whose cost scales with the data;
* malloc/free forwarding to the compartment's heap.

Every function is a ``newlib`` entry point, so putting the application and
its libc in different compartments is possible (though the paper's
configurations keep ``redis+newlib`` together, and so do ours).
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.kernel.lib import entrypoint, work
from repro.kernel.net.socket import Socket
from repro.kernel.sched import yield_


class Libc:
    """One image's libc instance."""

    def __init__(self, costs, memmgr=None, default_compartment=0):
        self.costs = costs
        self.memmgr = memmgr
        self.default_compartment = default_compartment

    # -- memory ----------------------------------------------------------------
    @entrypoint("newlib")
    def malloc(self, size, compartment=None):
        comp = self.default_compartment if compartment is None else compartment
        return self.memmgr.malloc(comp, size)

    @entrypoint("newlib")
    def free(self, allocation):
        allocation.free()

    # -- strings / memory ---------------------------------------------------------
    @entrypoint("newlib")
    def memcpy(self, data):
        """Model a copy of ``data``; returns an independent bytes object."""
        work(len(data) * self.costs.memcpy_per_byte)
        return bytes(data)

    @entrypoint("newlib")
    def snprintf(self, fmt, *args):
        work(len(fmt) * 0.5 + 40)
        return fmt % args if args else fmt

    # -- sockets --------------------------------------------------------------
    @entrypoint("newlib")
    def socket(self, stack):
        work(self.costs.function_call)
        return Socket(stack)

    def recv_blocking(self, sock, max_bytes, max_polls=100_000):
        """Generator: blocking recv.

        Polls the socket; while empty, yields to the scheduler (the
        app->uksched edge).  Returns the received bytes, or b'' if the
        peer closed the connection.
        """
        polls = 0
        while True:
            data = sock.try_recv(max_bytes)
            if data:
                return data
            if sock.peer_closed and sock.readable == 0:
                return b""
            polls += 1
            if polls > max_polls:
                raise NetworkError("recv stalled: no data after %d polls"
                                   % max_polls)
            yield yield_()

    def accept_blocking(self, sock, max_polls=100_000):
        """Generator: blocking accept; returns the connected socket."""
        polls = 0
        while True:
            accepted = sock.try_accept()
            if accepted is not None:
                return accepted
            polls += 1
            if polls > max_polls:
                raise NetworkError("accept stalled after %d polls" % max_polls)
            yield yield_()

    def connect_blocking(self, sock, ip, port, max_polls=100_000):
        """Generator: blocking connect; returns when ESTABLISHED."""
        sock.connect_start(ip, port)
        polls = 0
        while not sock.connected:
            sock.stack.pump()
            polls += 1
            if polls > max_polls:
                raise NetworkError("connect stalled after %d polls" % max_polls)
            yield yield_()
        return sock

    @entrypoint("newlib")
    def send(self, sock, payload):
        return sock.send(payload)
