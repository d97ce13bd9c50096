"""Network stack tests: headers, TCP state machine, sockets, loss."""

import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.kernel.net import LinkedDevices, NetworkStack, Socket, headers
from repro.kernel.net.headers import (
    ACK,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    MAC_BROADCAST_RAW,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    SYN,
    TcpHeader,
    UdpHeader,
    checksum16,
    ip_bytes,
    mac_bytes,
    pack_ethernet,
    pack_ipv4,
    unpack_ethernet,
    unpack_ipv4,
)
from repro.kernel.net.tcp import MSS, TcpConnection, TcpState


@pytest.fixture
def pair():
    """Two linked stacks: (server, client)."""
    costs = CostModel.xeon_4114()
    clock = Clock()
    link = LinkedDevices(costs)
    server = NetworkStack(link.a, "10.0.0.2", costs, clock)
    client = NetworkStack(link.b, "10.0.0.1", costs, clock)
    return server, client


def settle(*stacks, rounds=10):
    for _ in range(rounds):
        for stack in stacks:
            stack.pump()


class TestHeaders:
    def test_mac_roundtrip(self):
        assert mac_bytes("02:00:00:00:00:0a") == b"\x02\x00\x00\x00\x00\x0a"

    def test_bad_mac(self):
        with pytest.raises(NetworkError):
            mac_bytes("not-a-mac")

    def test_ip_roundtrip(self):
        assert ip_bytes("10.0.0.1") == b"\x0a\x00\x00\x01"

    def test_ethernet_roundtrip(self):
        dst = mac_bytes("02:00:00:00:00:01")
        src = mac_bytes("02:00:00:00:00:02")
        frame = pack_ethernet(dst, src, ETHERTYPE_IPV4) + b"payload"
        assert unpack_ethernet(frame) == (dst, src, ETHERTYPE_IPV4,
                                          b"payload")

    def test_runt_frame_rejected(self):
        with pytest.raises(NetworkError):
            unpack_ethernet(b"\x00" * 5)

    def test_ipv4_checksum_valid(self):
        packed = pack_ipv4(ip_bytes("10.0.0.1"), ip_bytes("10.0.0.2"),
                           PROTO_TCP, 40)
        assert checksum16(packed) == 0  # checksum over header is zero

    def test_ipv4_corruption_detected(self):
        packed = bytearray(pack_ipv4(ip_bytes("10.0.0.1"),
                                     ip_bytes("10.0.0.2"), PROTO_TCP, 40))
        packed[8] ^= 0xFF  # clobber the TTL
        with pytest.raises(NetworkError, match="checksum"):
            unpack_ipv4(bytes(packed) + b"\x00" * 20)

    def test_ipv4_roundtrip(self):
        src, dst = ip_bytes("192.168.1.7"), ip_bytes("10.0.0.2")
        packet = pack_ipv4(src, dst, PROTO_UDP, 28, ident=99) + b"\x00" * 8
        assert unpack_ipv4(packet) == (src, dst, PROTO_UDP, 28, 99, 64,
                                       b"\x00" * 8)

    def test_tcp_roundtrip(self):
        tcp = TcpHeader(1234, 80, seq=7, ack=9, flags=SYN | ACK)
        header, payload = TcpHeader.unpack(tcp.pack() + b"data")
        assert (header.src_port, header.dst_port) == (1234, 80)
        assert header.seq == 7 and header.ack == 9
        assert header.flags == SYN | ACK
        assert payload == b"data"

    def test_udp_roundtrip(self):
        udp = UdpHeader(53, 5353, 12)
        header, _ = UdpHeader.unpack(udp.pack() + b"quad")
        assert (header.src_port, header.dst_port) == (53, 5353)


class TestHandshake:
    def test_three_way_handshake(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        assert conn.state is TcpState.ESTABLISHED
        accepted = server.tcp_accept(listener)
        assert accepted is not None
        assert accepted.state is TcpState.ESTABLISHED

    def test_double_listen_rejected(self, pair):
        server, _ = pair
        server.tcp_listen(80)
        with pytest.raises(NetworkError):
            server.tcp_listen(80)

    def test_accept_before_handshake_returns_none(self, pair):
        server, _ = pair
        listener = server.tcp_listen(80)
        assert server.tcp_accept(listener) is None

    def test_syn_to_closed_port_dropped(self, pair):
        server, client = pair
        client.tcp_connect("10.0.0.2", 81)  # nothing listens
        settle(server, client)
        # No crash; the client stays in SYN_SENT (no RST in this model).


class TestDataTransfer:
    def _established(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        return server.tcp_accept(listener), conn, server, client

    def test_client_to_server_bytes(self, pair):
        accepted, conn, server, client = self._established(pair)
        client.tcp_send(conn, b"hello server")
        settle(server, client)
        assert server.tcp_recv(accepted, 100) == b"hello server"

    def test_bidirectional(self, pair):
        accepted, conn, server, client = self._established(pair)
        client.tcp_send(conn, b"ping")
        settle(server, client)
        server.tcp_recv(accepted, 10)
        server.tcp_send(accepted, b"pong")
        settle(server, client)
        assert client.tcp_recv(conn, 10) == b"pong"

    @staticmethod
    def _receive(accepted, server, client, n_bytes, rounds=200):
        """Read ``n_bytes`` off ``accepted``, pumping both stacks."""
        received = b""
        for _ in range(rounds):
            if len(received) >= n_bytes:
                break
            chunk = server.tcp_recv(accepted, 4096)
            if not chunk:
                settle(server, client)
            received += chunk
        return received

    @pytest.mark.parametrize("length", [1, MSS, 2 * MSS, 3 * MSS + 1, 5120])
    def test_segmentation_at_mss(self, pair, length):
        accepted, conn, server, client = self._established(pair)
        payload = (bytes(range(256)) * 21)[:length]  # up to 5376 B
        before = conn.segments_out
        assert client.tcp_send(conn, payload) == length
        assert conn.segments_out - before == -(-length // MSS)  # ceil
        assert self._receive(accepted, server, client, length) == payload

    def test_caller_buffer_never_aliased(self, pair):
        accepted, conn, server, client = self._established(pair)
        # Larger than the peer's window, so the tail waits in the send
        # backlog while the caller scribbles over its buffer.
        original = bytes(i % 251 for i in range(70_000))
        buf = bytearray(original)
        client.tcp_send(conn, buf)
        assert conn.backlog_bytes > 0
        buf[:] = b"X" * len(buf)
        assert self._receive(accepted, server, client,
                             len(original)) == original

    def test_partial_reads_preserve_order(self, pair):
        accepted, conn, server, client = self._established(pair)
        client.tcp_send(conn, b"abcdefghij")
        settle(server, client)
        assert server.tcp_recv(accepted, 4) == b"abcd"
        assert server.tcp_recv(accepted, 4) == b"efgh"
        assert server.tcp_recv(accepted, 4) == b"ij"

    def test_sequence_numbers_advance(self, pair):
        accepted, conn, server, client = self._established(pair)
        start = conn.snd_nxt
        client.tcp_send(conn, b"12345")
        assert conn.snd_nxt == start + 5
        settle(server, client)
        assert conn.snd_una == conn.snd_nxt  # fully acknowledged


class TestLossRecovery:
    def test_retransmission_after_drop(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        accepted = server.tcp_accept(listener)

        # Drop the next data frame the server would receive.
        drops = {"left": 1}

        def drop_one(_index):
            if drops["left"] > 0:
                drops["left"] -= 1
                return True
            return False

        server.device.drop_fn = drop_one
        client.tcp_send(conn, b"important")
        settle(server, client)
        assert server.tcp_recv(accepted, 100) == b""  # lost

        # Fire the retransmission timer (RTO is 200 ms of virtual time).
        client.clock.charge(client.clock.ns_to_cycles(250_000_000))
        conn.poll_retransmit()
        settle(server, client)
        assert server.tcp_recv(accepted, 100) == b"important"
        assert conn.retransmits == 1

    def test_duplicate_segments_ignored(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        accepted = server.tcp_accept(listener)
        client.tcp_send(conn, b"once")
        settle(server, client)
        server.tcp_recv(accepted, 10)
        # Force a spurious retransmission: the receiver must not deliver
        # the data twice.
        conn._inflight = [(conn.snd_nxt - 4, b"once", 0)]
        conn.poll_retransmit()
        settle(server, client)
        assert server.tcp_recv(accepted, 10) == b""


class TestTeardown:
    def test_fin_handshake(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        accepted = server.tcp_accept(listener)
        client.tcp_close(conn)
        settle(server, client)
        assert accepted.fin_received
        assert accepted.state is TcpState.CLOSE_WAIT
        server.tcp_close(accepted)
        settle(server, client)
        assert accepted.state is TcpState.CLOSED
        assert conn.state is TcpState.TIME_WAIT

    def test_send_after_close_rejected(self, pair):
        server, client = pair
        server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        client.tcp_close(conn)
        with pytest.raises(NetworkError):
            client.tcp_send(conn, b"late")


class TestHostileAcks:
    def test_ack_beyond_snd_nxt_is_dropped_and_reacked(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        accepted = server.tcp_accept(listener)
        snd_una, segments_out = accepted.snd_una, accepted.segments_out
        hostile = TcpHeader(conn.local_port, 80, conn.snd_nxt,
                            accepted.snd_nxt + 10**6, ACK, window=0xFFFF)
        body = hostile.pack()
        server.device.rx_queue.append(
            pack_ethernet(server.device.mac, client.device.mac,
                          ETHERTYPE_IPV4)
            + pack_ipv4(client.ip_raw, server.ip_raw, PROTO_TCP,
                        20 + len(body))
            + body)
        assert server.pump() == 1
        assert accepted.snd_una == snd_una
        assert accepted._bytes_in_flight() >= 0
        assert accepted.segments_out == segments_out + 1
        [frame] = client.device.rx_queue
        reply, _ = TcpHeader.unpack(
            unpack_ipv4(unpack_ethernet(frame)[3])[6])
        assert reply.flags == ACK and reply.ack == accepted.rcv_nxt


class TestSocketsAndUdp:
    def test_socket_facade(self, pair):
        server, client = pair
        listening = Socket(server).bind(8080).listen()
        connecting = Socket(client).connect_start("10.0.0.2", 8080)
        settle(server, client)
        client.pump()
        accepted = listening.try_accept()
        assert accepted is not None
        connecting.send(b"req")
        settle(server, client)
        assert accepted.try_recv(10) == b"req"

    def test_bind_twice_rejected(self, pair):
        server, _ = pair
        sock = Socket(server).bind(1)
        with pytest.raises(NetworkError):
            sock.bind(2)

    def test_udp_roundtrip(self, pair):
        server, client = pair
        client.udp_send(5000, "10.0.0.2", 53, b"query")
        settle(server, client)
        src_ip, src_port, payload = server.udp_recv(53)
        assert (src_ip, src_port) == ("10.0.0.1", 5000)
        assert payload == b"query"

    def test_udp_empty_queue(self, pair):
        server, _ = pair
        assert server.udp_recv(9999) is None

    def test_device_counters(self, pair):
        server, client = pair
        client.udp_send(1, "10.0.0.2", 2, b"x")
        # The first packet to an unknown host triggers ARP resolution:
        # the datagram is parked behind the ARP request.
        assert client.device.tx_frames == 1
        settle(server, client)
        # request -> reply -> flushed datagram.
        assert client.device.tx_frames == 2
        assert server.device.rx_frames == 2


class TestStateTable:
    def test_every_state_has_a_handler(self):
        handlers = TcpConnection.SEGMENT_HANDLERS
        assert set(handlers) == set(TcpState)
        for handler in handlers.values():
            assert getattr(TcpConnection, handler.__name__) is handler

    @pytest.mark.parametrize("state", [TcpState.CLOSED, TcpState.TIME_WAIT])
    def test_closed_states_ignore_segments(self, pair, state):
        server, _ = pair
        conn = TcpConnection(server, server.ip_raw, 80,
                             remote_ip=ip_bytes("10.0.0.1"), remote_port=9)
        conn.state = state
        conn.on_segment(TcpHeader(9, 80, 0, 0, SYN | ACK), b"data")
        assert conn.state is state
        assert conn.recv_buffer == b"" and conn.segments_out == 0


class TestRawAddresses:
    def test_device_and_arp_cache_hold_raw_macs(self, pair):
        server, client = pair
        assert server.device.mac == mac_bytes("02:00:00:00:00:0a")
        client.udp_send(1, "10.0.0.2", 2, b"x")
        settle(server, client)
        assert client.arp_table == {"10.0.0.2": server.device.mac}

    def test_ip_ident_wraps_at_16_bits(self, pair):
        server, client = pair
        client.udp_send(1, "10.0.0.2", 2, b"resolve")
        settle(server, client)
        client._next_ident = 0xFFFF
        for _ in range(2):
            client.udp_send(1, "10.0.0.2", 2, b"x")
        idents = [unpack_ipv4(unpack_ethernet(frame)[3])[4]
                  for frame in list(server.device.rx_queue)]
        assert idents == [0xFFFF, 0]


# -- fuzzing the parsers -------------------------------------------------------

#: Fixed, derandomised settings: the same examples on every run.
FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None)


def checksum16_reference(data):
    """RFC 1071, verbatim: add byte pairs, fold the carries, complement."""
    data = bytes(data)
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


#: Every parser in ``headers``: the classes' ``unpack`` and the raw codecs.
PARSERS = sorted(
    [(name, value.unpack) for name, value in vars(headers).items()
     if inspect.isclass(value) and hasattr(value, "unpack")]
    + [(name, value) for name, value in vars(headers).items()
       if name.startswith("unpack_")]
)

SERVER_IP = ip_bytes("10.0.0.2")
SERVER_MAC = mac_bytes("02:00:00:00:00:0a")

ports = st.integers(0, 0xFFFF)
words = st.integers(0, 0xFFFFFFFF)
octets = st.integers(0, 0xFF)
raw_ips = st.binary(min_size=4, max_size=4)
raw_macs = st.binary(min_size=6, max_size=6)


@st.composite
def ipv4_packets(draw, to_server=False):
    """A checksummed IPv4 header over an arbitrary body.

    With ``to_server`` the packet is well-formed and addressed to the
    fuzzed stack (10.0.0.2), and a TCP segment targets its listener
    (port 80) or its one connection (from 10.0.0.1:49152), so that the
    demux and the TCP state machine see it.
    """
    if to_server:
        proto = draw(st.sampled_from([PROTO_TCP, PROTO_TCP, PROTO_UDP,
                                      PROTO_ICMP]))
    else:
        proto = draw(octets)
    body = b""
    if proto == PROTO_TCP and (to_server or draw(st.booleans())):
        body = TcpHeader(
            draw(st.sampled_from([49152, 49153])) if to_server
            else draw(ports),
            80 if to_server else draw(ports),
            draw(words), draw(words), draw(octets), window=draw(ports),
        ).pack()
    body += draw(st.binary(max_size=48))
    if to_server:
        src, dst, total_len = ip_bytes("10.0.0.1"), SERVER_IP, 20 + len(body)
    else:
        src, dst, total_len = draw(raw_ips), draw(raw_ips), draw(ports)
    return pack_ipv4(src, dst, proto, total_len, ident=draw(ports),
                     ttl=draw(octets)) + body


@st.composite
def frames(draw):
    """Frames a hostile or broken link might deliver to 10.0.0.2."""
    kind = draw(st.sampled_from(["bytes", "arp", "ipv4", "aimed", "aimed",
                                 "aimed"]))
    if kind == "bytes":
        return draw(st.binary(max_size=96))
    if kind == "ipv4":
        dst = draw(raw_macs)
    else:
        dst = draw(st.sampled_from([SERVER_MAC, MAC_BROADCAST_RAW]))
    if kind == "arp":
        # Half of them carry the Ethernet/IPv4 ARP preamble.
        payload = draw(st.sampled_from([b"", b"\x00\x01\x08\x00\x06\x04"]))
        payload += draw(st.binary(min_size=2, max_size=32))
        return pack_ethernet(dst, draw(raw_macs), ETHERTYPE_ARP) + payload
    return (pack_ethernet(dst, draw(raw_macs), ETHERTYPE_IPV4)
            + draw(ipv4_packets(to_server=kind == "aimed")))


class TestParserFuzz:
    @pytest.mark.parametrize("name,parse", PARSERS,
                             ids=[name for name, _ in PARSERS])
    @FUZZ
    @given(data=st.binary(max_size=96) | ipv4_packets())
    def test_parse_or_raise_network_error(self, name, parse, data):
        try:
            parse(data)
        except NetworkError:
            pass

    def test_every_parser_is_fuzzed(self):
        assert [name for name, _ in PARSERS] == [
            "ArpHeader", "IcmpHeader", "TcpHeader", "UdpHeader",
            "unpack_ethernet", "unpack_ipv4",
        ]

    @FUZZ
    @given(frame_list=st.lists(frames(), min_size=1, max_size=6))
    def test_pump_parses_drops_or_raises_network_error(self, frame_list):
        costs = CostModel.xeon_4114()
        clock = Clock()
        link = LinkedDevices(costs)
        server = NetworkStack(link.a, "10.0.0.2", costs, clock)
        client = NetworkStack(link.b, "10.0.0.1", costs, clock)
        listener = server.tcp_listen(80)
        client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        assert server.tcp_accept(listener) is not None
        for frame in frame_list:
            before = server.frames_in
            server.device.rx_queue.append(frame)
            try:
                assert server.pump() == 1
            except NetworkError:
                pass
            assert server.frames_in == before + 1
            assert not server.device.rx_queue

    @FUZZ
    @given(data=st.binary(max_size=64),
           form=st.sampled_from(["bytes", "bytearray", "slice"]))
    @example(data=b"\xff\xff", form="bytes")
    @example(data=b"\x00\x00\x00", form="bytes")
    @example(data=b"", form="bytes")
    def test_checksum_matches_rfc1071_reference(self, data, form):
        if form == "bytearray":
            data = bytearray(data)
        elif form == "slice":
            data = (b"\x5a" + data)[1:]
        assert checksum16(data) == checksum16_reference(data)
        assert checksum16(data[1:]) == checksum16_reference(data[1:])

    @FUZZ
    @given(src=raw_ips, dst=raw_ips, proto=octets, total_len=ports,
           ident=ports, ttl=octets, bit=st.integers(0, 159))
    def test_single_bit_flip_in_ipv4_header_rejected(
            self, src, dst, proto, total_len, ident, ttl, bit):
        packed = bytearray(pack_ipv4(src, dst, proto, total_len,
                                     ident=ident, ttl=ttl))
        assert unpack_ipv4(bytes(packed))[:6] == (
            src, dst, proto, total_len, ident, ttl)
        packed[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(NetworkError):
            unpack_ipv4(bytes(packed))
