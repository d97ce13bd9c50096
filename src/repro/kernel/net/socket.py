"""Non-blocking BSD-style socket objects over the stack.

These are the stack-side socket structures; POSIX *blocking* semantics
(recv that waits for data) live in the libc layer as poll-and-yield
generators, matching the paper's communication pattern where the network
stack itself never calls into the scheduler.
"""

from __future__ import annotations

from repro.errors import NetworkError


class Socket:
    """A TCP socket bound to one :class:`NetworkStack`."""

    def __init__(self, stack):
        self.stack = stack
        self.conn = None
        self.listener = None
        self.bound_port = None

    # -- server side ------------------------------------------------------------
    def bind(self, port):
        if self.bound_port is not None:
            raise NetworkError("socket already bound")
        self.bound_port = port
        return self

    def listen(self):
        if self.bound_port is None:
            raise NetworkError("listen before bind")
        self.listener = self.stack.tcp_listen(self.bound_port)
        return self

    def try_accept(self):
        """Non-blocking accept; returns a connected Socket or None."""
        if self.listener is None:
            raise NetworkError("accept on a non-listening socket")
        self.stack.pump()
        conn = self.stack.tcp_accept(self.listener)
        if conn is None:
            return None
        accepted = Socket(self.stack)
        accepted.conn = conn
        return accepted

    # -- client side ---------------------------------------------------------
    def connect_start(self, ip, port):
        """Begin an active open (SYN sent); completes via pump()."""
        self.conn = self.stack.tcp_connect(ip, port)
        return self

    @property
    def connected(self):
        from repro.kernel.net.tcp import TcpState

        return self.conn is not None and self.conn.state is TcpState.ESTABLISHED

    # -- data path --------------------------------------------------------------
    def send(self, payload):
        if self.conn is None:
            raise NetworkError("send on an unconnected socket")
        return self.stack.tcp_send(self.conn, payload)

    def try_recv(self, max_bytes):
        """Non-blocking recv: pumps the device, returns b'' when empty."""
        if self.conn is None:
            raise NetworkError("recv on an unconnected socket")
        self.stack.pump()
        return self.stack.tcp_recv(self.conn, max_bytes)

    @property
    def readable(self):
        if self.conn is None:
            return 0
        return self.stack.tcp_readable(self.conn)

    @property
    def peer_closed(self):
        return self.conn is not None and self.conn.fin_received

    def close(self):
        if self.conn is not None:
            self.stack.tcp_close(self.conn)
