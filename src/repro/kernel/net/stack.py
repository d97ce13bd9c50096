"""The lwIP-style stack facade: demux, IP layer, device pump.

All public operations are ``lwip`` entry points, so a compartment boundary
around the network stack turns every socket-buffer poll, send, and device
pump into a gated cross-call.

Inside the stack an address is raw bytes, as frames carry it: the
device's MAC, the stack's IP, every connection's endpoints and the ARP
cache.  Dotted-quad strings are converted once where they enter (a
connect, a datagram or ping destination) and formatted where they leave
(a datagram's or echo reply's source, :attr:`NetworkStack.arp_table`).
"""

from __future__ import annotations

from collections import deque

from repro.errors import NetworkError
from repro.kernel.lib import entrypoint, work
from repro.kernel.net.headers import (
    ARP_REPLY,
    ARP_REQUEST,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    MAC_BROADCAST,
    MAC_BROADCAST_RAW,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    ArpHeader,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
    ip_bytes,
    ip_str,
    mac_bytes,
    mac_str,
    pack_ethernet,
    pack_ipv4,
    unpack_ethernet,
    unpack_ipv4,
)
from repro.kernel.net.tcp import TcpConnection, TcpState


class NetworkStack:
    """One host's network stack bound to one device."""

    def __init__(self, device, ip, costs, clock):
        self.device = device
        #: This host's address as given (dotted quad), and as raw bytes.
        self.ip = ip
        self.ip_raw = ip_bytes(ip)
        self.costs = costs
        self.clock = clock
        self._conns = {}       # 4-tuple -> TcpConnection
        self._listeners = {}   # port -> TcpConnection in LISTEN
        self._udp_queues = {}  # port -> deque of (src_ip, src_port, payload)
        self._next_ident = 1
        self._next_port = 49152
        #: Raw src IP of the frame being demuxed (handshake helper).
        self.last_src_ip = None
        self.frames_in = 0
        self.frames_out = 0
        #: ARP cache, raw ip -> raw mac; packets parked while resolution
        #: runs.
        self._arp = {}
        self._arp_pending = {}  # raw ip -> [(proto, body), ...]
        #: ICMP echo replies received: [(src_ip, ident, seq)].
        self.ping_replies = []
        self._ping_ident = 0x4242

    def now_ns(self):
        return self.clock.ns

    @property
    def arp_table(self):
        """The ARP cache as ``{"10.0.0.1": device MAC}`` (a copy)."""
        return {ip_str(ip): mac for ip, mac in self._arp.items()}

    # -- connection registry ----------------------------------------------------
    def register_connection(self, conn):
        self._conns[conn.four_tuple()] = conn

    def ephemeral_port(self):
        port = self._next_port
        self._next_port += 1
        return port

    # -- outbound path -----------------------------------------------------------
    def tcp_output(self, conn, header, payload):
        """Wrap a TCP segment in IP + Ethernet and transmit it."""
        work(self.costs.tcp_segment)
        segment = header.pack() + payload
        self._ip_output(conn.remote_ip, PROTO_TCP, segment)

    @entrypoint("lwip")
    def udp_send(self, src_port, dst_ip, dst_port, payload):
        work(self.costs.tcp_segment / 2.0)
        header = UdpHeader(src_port, dst_port, len(payload) + 8)
        self._ip_output(ip_bytes(dst_ip), PROTO_UDP, header.pack() + payload)

    def _ip_output(self, dst_ip, proto, body):
        """Frame ``body`` for the raw address ``dst_ip`` and transmit it."""
        work(self.costs.ip_route)
        dst_mac = self._arp.get(dst_ip)
        if dst_mac is None:
            # Park the packet and ask the link who owns dst_ip.
            self._arp_pending.setdefault(dst_ip, []).append((proto, body))
            self._send_arp(ARP_REQUEST, MAC_BROADCAST, ip_str(dst_ip))
            return
        frame = (
            pack_ethernet(dst_mac, self.device.mac, ETHERTYPE_IPV4)
            + pack_ipv4(self.ip_raw, dst_ip, proto, 20 + len(body),
                        ident=self._next_ident)
            + body
        )
        self._next_ident += 1
        self.frames_out += 1
        self.device.transmit(frame)

    # -- ARP -----------------------------------------------------------------
    def _send_arp(self, oper, target_mac, target_ip):
        """Send one ARP packet; addresses are strings, as in ArpHeader."""
        arp = ArpHeader(oper, mac_str(self.device.mac), self.ip, target_mac,
                        target_ip)
        dst_mac = MAC_BROADCAST if oper == ARP_REQUEST else target_mac
        self.frames_out += 1
        self.device.transmit(
            pack_ethernet(mac_bytes(dst_mac), self.device.mac, ETHERTYPE_ARP)
            + arp.pack()
        )

    def _arp_input(self, packet):
        arp = ArpHeader.unpack(packet)
        sender_ip = ip_bytes(arp.sender_ip)
        # Gratuitous learning: remember the sender either way.
        self._arp[sender_ip] = mac_bytes(arp.sender_mac)
        if arp.oper == ARP_REQUEST and arp.target_ip == self.ip:
            self._send_arp(ARP_REPLY, arp.sender_mac, arp.sender_ip)
        # Flush packets parked on this resolution.
        parked = self._arp_pending.pop(sender_ip, [])
        for proto, body in parked:
            self._ip_output(sender_ip, proto, body)

    # -- ICMP ---------------------------------------------------------------
    @entrypoint("lwip")
    def ping(self, dst_ip, seq=1, payload=b"flexos-ping"):
        """Send one ICMP echo request; replies land in ping_replies."""
        header = IcmpHeader(ICMP_ECHO_REQUEST, self._ping_ident, seq)
        self._ip_output(ip_bytes(dst_ip), PROTO_ICMP, header.pack(payload))
        return self._ping_ident

    def _icmp_input(self, src_ip, body):
        work(self.costs.tcp_segment / 3.0)
        icmp, payload = IcmpHeader.unpack(body)
        if icmp.icmp_type == ICMP_ECHO_REQUEST:
            reply = IcmpHeader(ICMP_ECHO_REPLY, icmp.ident, icmp.seq)
            self._ip_output(src_ip, PROTO_ICMP, reply.pack(payload))
        elif icmp.icmp_type == ICMP_ECHO_REPLY:
            self.ping_replies.append((ip_str(src_ip), icmp.ident, icmp.seq))

    # -- inbound path ---------------------------------------------------------
    @entrypoint("lwip")
    def pump(self, budget=64):
        """Process up to ``budget`` received frames; returns count."""
        processed = 0
        while processed < budget:
            frame = self.device.poll()
            if frame is None:
                break
            self._input(frame)
            processed += 1
        return processed

    def _input(self, frame):
        self.frames_in += 1
        dst_mac, src_mac, ethertype, packet = unpack_ethernet(frame)
        if dst_mac != self.device.mac and dst_mac != MAC_BROADCAST_RAW:
            return  # not addressed to us
        if ethertype == ETHERTYPE_ARP:
            self._arp_input(packet)
            return
        src_ip, dst_ip, proto, _len, _ident, _ttl, body = unpack_ipv4(packet)
        if dst_ip != self.ip_raw:
            return  # promiscuous frames are dropped
        work(self.costs.ip_route)
        self.last_src_ip = src_ip
        # Opportunistic ARP learning from traffic we accept.
        self._arp.setdefault(src_ip, src_mac)
        if proto == PROTO_TCP:
            self._tcp_input(src_ip, body)
        elif proto == PROTO_UDP:
            self._udp_input(src_ip, body)
        elif proto == PROTO_ICMP:
            self._icmp_input(src_ip, body)
        else:
            raise NetworkError("unknown IP proto %d" % proto)

    def _tcp_input(self, src_ip, body):
        work(self.costs.tcp_segment)
        header, payload = TcpHeader.unpack(body)
        key = (self.ip_raw, header.dst_port, src_ip, header.src_port)
        conn = self._conns.get(key)
        if conn is None:
            conn = self._listeners.get(header.dst_port)
        if conn is None:
            return  # no socket: real stacks send RST; we drop.
        conn.on_segment(header, payload)

    def _udp_input(self, src_ip, body):
        work(self.costs.tcp_segment / 2.0)
        header, payload = UdpHeader.unpack(body)
        queue = self._udp_queues.setdefault(header.dst_port, deque())
        queue.append((ip_str(src_ip), header.src_port, payload))

    # -- TCP control entry points ----------------------------------------------
    @entrypoint("lwip")
    def tcp_listen(self, port):
        """Create a listening connection on ``port``."""
        if port in self._listeners:
            raise NetworkError("port %d already listening" % port)
        conn = TcpConnection(self, self.ip_raw, port)
        conn.open_passive()
        self._listeners[port] = conn
        return conn

    @entrypoint("lwip")
    def tcp_connect(self, dst_ip, dst_port):
        """Active open; returns the connection (handshake in flight)."""
        remote_ip = ip_bytes(dst_ip)
        conn = TcpConnection(self, self.ip_raw, self.ephemeral_port())
        conn.remote_ip = remote_ip
        conn.remote_port = dst_port
        self.register_connection(conn)
        conn.open_active(remote_ip, dst_port)
        return conn

    @entrypoint("lwip")
    def tcp_accept(self, listener):
        """Pop one established embryonic connection, or None."""
        while listener.accept_backlog:
            conn = listener.accept_backlog[0]
            if conn.state is TcpState.ESTABLISHED:
                listener.accept_backlog.popleft()
                return conn
            break
        return None

    @entrypoint("lwip")
    def tcp_send(self, conn, payload):
        return conn.send(payload)

    @entrypoint("lwip")
    def tcp_recv(self, conn, max_bytes):
        """Non-blocking read from the connection's receive buffer."""
        work(self.costs.function_call)
        return conn.read(max_bytes)

    @entrypoint("lwip")
    def tcp_readable(self, conn):
        return conn.readable_bytes

    @entrypoint("lwip")
    def tcp_close(self, conn):
        conn.close()

    @entrypoint("lwip")
    def udp_recv(self, port):
        queue = self._udp_queues.get(port)
        if not queue:
            return None
        return queue.popleft()
