"""TCP: connection state machine with real sequence-number arithmetic.

Implements the subset of RFC 793 the workloads exercise, for real:

* three-way handshake (active and passive open);
* byte-stream data transfer with segmentation at the MSS and cumulative
  acknowledgements;
* in-order reassembly with out-of-order segment buffering;
* retransmission of unacknowledged data on timeout;
* FIN/ACK teardown.

Congestion control is omitted (the paper's testbed link never congests;
the figures are gate-latency bound), which is documented in DESIGN.md.
"""

from __future__ import annotations

import enum
from collections import deque

from repro.errors import NetworkError
from repro.kernel.net.headers import ACK, FIN, PSH, SYN, TcpHeader, ip_str
from repro.obs import tracer as obs

#: Maximum segment size for a standard 1500-byte MTU.
MSS = 1460

#: Retransmission timeout, in virtual nanoseconds.
RTO_NS = 200_000_000

#: Maximum receive window we advertise (bytes of buffer space).
RECV_WINDOW_MAX = 65535


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


class TcpConnection:
    """One TCP endpoint (identified by the local/remote 4-tuple).

    ``local_ip`` and ``remote_ip`` are raw 4-byte addresses, as the
    stack demuxes them.
    """

    def __init__(self, stack, local_ip, local_port, remote_ip=None,
                 remote_port=None, isn=1000):
        self.stack = stack
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = TcpState.CLOSED

        self.snd_una = isn          # oldest unacknowledged byte
        self.snd_nxt = isn          # next byte to send
        self.rcv_nxt = 0            # next byte expected

        self.recv_buffer = bytearray()
        self._reorder = {}          # seq -> payload, out-of-order stash
        self._inflight = []         # [(seq, payload, sent_at_ns)]
        self.accept_backlog = deque()  # completed embryonic connections
        self.segments_in = 0
        self.segments_out = 0
        self.retransmits = 0
        self.fin_received = False
        #: Peer's advertised receive window (flow control).
        self.snd_wnd = RECV_WINDOW_MAX
        #: Bytes waiting because the peer's window was full.
        self._send_backlog = deque()
        self._advertised_zero = False

    # -- sending ------------------------------------------------------------------
    def recv_window(self):
        """The window we advertise: free space in the receive buffer."""
        return max(0, RECV_WINDOW_MAX - len(self.recv_buffer))

    def _emit(self, flags, payload=b"", seq=None):
        window = self.recv_window()
        self._advertised_zero = window < MSS  # effectively closed
        header = TcpHeader(
            self.local_port, self.remote_port,
            self.snd_nxt if seq is None else seq,
            self.rcv_nxt, flags, window=window,
        )
        self.segments_out += 1
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.tcp_segment("tx", flags, len(payload),
                               port=self.local_port)
        self.stack.tcp_output(self, header, payload)

    def open_active(self, remote_ip, remote_port):
        """Client side: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise NetworkError("connect on non-closed connection")
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = TcpState.SYN_SENT
        self._emit(SYN)
        self.snd_nxt += 1  # SYN occupies one sequence number

    def open_passive(self):
        """Server side: enter LISTEN."""
        if self.state is not TcpState.CLOSED:
            raise NetworkError("listen on non-closed connection")
        self.state = TcpState.LISTEN

    def send(self, payload):
        """Queue application bytes; segments at the MSS.

        Respects the peer's advertised window: bytes beyond it wait in a
        send backlog that drains as acknowledgements open the window.
        The payload is copied first, so a caller that later mutates its
        buffer never changes bytes already queued.
        """
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise NetworkError(
                "send in state %s" % self.state.value
            )
        payload = bytes(payload)
        for lo in range(0, len(payload), MSS):
            self._send_backlog.append(payload[lo:lo + MSS])
        self._flush_backlog()
        return len(payload)

    def _bytes_in_flight(self):
        return self.snd_nxt - self.snd_una

    def _flush_backlog(self):
        """Transmit backlog chunks that fit the peer's window."""
        if not self._send_backlog:
            return
        now = self.stack.now_ns()
        while self._send_backlog:
            chunk = self._send_backlog[0]
            if self._bytes_in_flight() + len(chunk) > self.snd_wnd:
                break
            self._send_backlog.popleft()
            self._inflight.append((self.snd_nxt, chunk, now))
            self._emit(PSH | ACK, chunk)
            self.snd_nxt += len(chunk)

    @property
    def backlog_bytes(self):
        return sum(len(chunk) for chunk in self._send_backlog)

    def close(self):
        """Initiate teardown (FIN)."""
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        elif self.state in (TcpState.CLOSED, TcpState.LISTEN):
            self.state = TcpState.CLOSED
            return
        else:
            return
        self._emit(FIN | ACK)
        self.snd_nxt += 1

    def poll_retransmit(self):
        """Retransmit timed-out in-flight segments."""
        now = self.stack.now_ns()
        refreshed = []
        for seq, chunk, sent_at in self._inflight:
            if now - sent_at >= RTO_NS:
                self.retransmits += 1
                self._emit(PSH | ACK, chunk, seq=seq)
                refreshed.append((seq, chunk, now))
            else:
                refreshed.append((seq, chunk, sent_at))
        self._inflight = refreshed

    # -- receiving --------------------------------------------------------------
    def on_segment(self, header, payload):
        """The stack's demux delivers one parsed segment here."""
        self.segments_in += 1
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.tcp_segment("rx", header.flags, len(payload),
                               port=self.local_port)
        self.SEGMENT_HANDLERS[self.state](self, header, payload)

    def _seg_ignore(self, header, payload):
        pass

    def _seg_listen(self, header, payload):
        if not header.flags & SYN:
            return
        # Spawn an embryonic connection for this peer.
        conn = TcpConnection(
            self.stack, self.local_ip, self.local_port,
            remote_ip=self.stack.last_src_ip, remote_port=header.src_port,
            isn=4000,
        )
        conn.rcv_nxt = header.seq + 1
        conn.state = TcpState.SYN_RCVD
        conn._emit(SYN | ACK)
        conn.snd_nxt += 1
        self.stack.register_connection(conn)
        self.accept_backlog.append(conn)

    def _seg_syn_sent(self, header, payload):
        if header.flags & SYN and header.flags & ACK:
            if header.ack != self.snd_nxt:
                return  # stale ACK
            self.rcv_nxt = header.seq + 1
            self.snd_una = header.ack
            self.state = TcpState.ESTABLISHED
            self._emit(ACK)

    def _seg_syn_rcvd(self, header, payload):
        if header.flags & ACK and header.ack == self.snd_nxt:
            self.snd_una = header.ack
            self.state = TcpState.ESTABLISHED
            if payload:
                self._accept_data(header, payload)

    def _take_ack(self, header):
        """Process the segment's ACK; False means drop the segment.

        An ACK for data never sent (beyond ``snd_nxt``) is answered with
        an ACK and the segment is dropped (RFC 793, SEGMENT ARRIVES), so
        no peer can move ``snd_una`` past ``snd_nxt`` and open the window.
        """
        if header.flags & ACK:
            if header.ack > self.snd_nxt:
                self._emit(ACK)
                return False
            self.snd_wnd = header.window
            if header.ack > self.snd_una:
                self.snd_una = header.ack
                self._inflight = [
                    (seq, chunk, at) for seq, chunk, at in self._inflight
                    if seq + len(chunk) > self.snd_una
                ]
            # The window may have opened: drain what now fits.
            self._flush_backlog()
        return True

    def _accept_data(self, header, payload):
        if payload:
            if header.seq == self.rcv_nxt:
                self.recv_buffer.extend(payload)
                self.rcv_nxt += len(payload)
                # Drain any contiguous out-of-order stash.
                while self.rcv_nxt in self._reorder:
                    chunk = self._reorder.pop(self.rcv_nxt)
                    self.recv_buffer.extend(chunk)
                    self.rcv_nxt += len(chunk)
                self._emit(ACK)
            elif header.seq > self.rcv_nxt:
                self._reorder[header.seq] = payload
                self._emit(ACK)  # duplicate ACK for the gap
            else:
                self._emit(ACK)  # retransmission of old data

    def _seg_established(self, header, payload):
        if not self._take_ack(header):
            return
        self._accept_data(header, payload)
        if header.flags & FIN and header.seq == self.rcv_nxt:
            self.rcv_nxt += 1
            self.fin_received = True
            self.state = TcpState.CLOSE_WAIT
            self._emit(ACK)

    def _seg_fin_wait_1(self, header, payload):
        if not self._take_ack(header):
            return
        self._accept_data(header, payload)
        acked = self.snd_una == self.snd_nxt
        if header.flags & FIN and header.seq == self.rcv_nxt:
            self.rcv_nxt += 1
            self.fin_received = True
            self._emit(ACK)
            self.state = TcpState.TIME_WAIT if acked else TcpState.CLOSE_WAIT
        elif acked:
            self.state = TcpState.FIN_WAIT_2

    def _seg_fin_wait_2(self, header, payload):
        self._accept_data(header, payload)
        if header.flags & FIN and header.seq == self.rcv_nxt:
            self.rcv_nxt += 1
            self.fin_received = True
            self._emit(ACK)
            self.state = TcpState.TIME_WAIT

    def _seg_close_wait(self, header, payload):
        self._take_ack(header)

    def _seg_last_ack(self, header, payload):
        if not self._take_ack(header):
            return
        if self.snd_una == self.snd_nxt:
            self.state = TcpState.CLOSED

    #: The segment handler of each state, called as
    #: ``handler(connection, header, payload)``.
    SEGMENT_HANDLERS = {
        TcpState.LISTEN: _seg_listen,
        TcpState.SYN_SENT: _seg_syn_sent,
        TcpState.SYN_RCVD: _seg_syn_rcvd,
        TcpState.ESTABLISHED: _seg_established,
        TcpState.FIN_WAIT_1: _seg_fin_wait_1,
        TcpState.FIN_WAIT_2: _seg_fin_wait_2,
        TcpState.CLOSE_WAIT: _seg_close_wait,
        TcpState.LAST_ACK: _seg_last_ack,
        TcpState.TIME_WAIT: _seg_ignore,
        TcpState.CLOSED: _seg_ignore,
    }

    # -- application-facing reads ----------------------------------------------
    def read(self, max_bytes):
        """Dequeue up to ``max_bytes`` from the receive buffer.

        If we had advertised a closed window, draining the buffer sends
        a window update so the stalled sender resumes.
        """
        data = bytes(self.recv_buffer[:max_bytes])
        del self.recv_buffer[:len(data)]
        if data and self._advertised_zero and self.recv_window() >= MSS \
                and self.state is TcpState.ESTABLISHED:
            self._emit(ACK)  # window update reopens the stalled sender
        return data

    @property
    def readable_bytes(self):
        return len(self.recv_buffer)

    def four_tuple(self):
        return (self.local_ip, self.local_port,
                self.remote_ip, self.remote_port)

    def __repr__(self):
        return "TcpConnection(%s:%s <-> %s:%s %s)" % (
            ip_str(self.local_ip), self.local_port,
            None if self.remote_ip is None else ip_str(self.remote_ip),
            self.remote_port, self.state.value,
        )
