"""Ethernet, IPv4, TCP and UDP header packing/parsing.

Real wire formats (struct-packed, checksummed) so that header corruption,
truncation, and checksum failures are detectable in tests, and payload
sizes seen by the cost model equal what real frames would carry.

The stack keeps its addresses as raw bytes: Ethernet and IPv4 headers
are built and parsed by the ``pack_*``/``unpack_*`` codecs.  Headers
that carry no address (TCP, UDP, ICMP) are classes, and so is ARP,
whose fields are strings (``"10.0.0.1"``, ``"02:00:00:00:00:0a"``).
"""

from __future__ import annotations

import struct

from repro.errors import NetworkError

ETH_HEADER_LEN = 14
IP_HEADER_LEN = 20
TCP_HEADER_LEN = 20
UDP_HEADER_LEN = 8

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

#: Ethernet broadcast address, as a string and as raw bytes.
MAC_BROADCAST = "ff:ff:ff:ff:ff:ff"
MAC_BROADCAST_RAW = b"\xff" * 6

# TCP flags
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10


def mac_bytes(mac):
    """Convert ``aa:bb:cc:dd:ee:ff`` to 6 raw bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise NetworkError("bad MAC address %r" % mac)
    return bytes(int(p, 16) for p in parts)


def mac_str(raw):
    return ":".join("%02x" % b for b in raw)


def ip_bytes(ip):
    parts = ip.split(".")
    if len(parts) != 4:
        raise NetworkError("bad IPv4 address %r" % ip)
    return bytes(int(p) for p in parts)


def ip_str(raw):
    return ".".join(str(b) for b in raw)


def checksum16(data):
    """RFC 1071 ones-complement sum over 16-bit words.

    ``data`` (bytes, bytearray or memoryview) read as one big-endian
    integer is congruent to the sum of its 16-bit words modulo 0xFFFF,
    since 2**16 is 1 modulo 0xFFFF; an odd length is padded with a zero
    byte.  A non-zero sum folds to 0xFFFF, not 0, as the carry-folding
    loop of the RFC does.
    """
    total = int.from_bytes(data, "big") << 8 * (len(data) & 1)
    folded = total % 0xFFFF or (0xFFFF if total else 0)
    return ~folded & 0xFFFF


def pack_ethernet(dst, src, ethertype):
    """An Ethernet header from raw 6-byte MACs."""
    return dst + src + struct.pack("!H", ethertype)


def unpack_ethernet(frame):
    """Split a frame into ``(dst, src, ethertype, payload)``, MACs raw."""
    if len(frame) < ETH_HEADER_LEN:
        raise NetworkError("runt ethernet frame (%d bytes)" % len(frame))
    return (frame[0:6], frame[6:12], (frame[12] << 8) | frame[13],
            frame[ETH_HEADER_LEN:])


def pack_ipv4(src, dst, proto, total_len, ident=0, ttl=64):
    """A checksummed 20-byte IPv4 header from raw 4-byte addresses.

    The identification field wraps at 16 bits, as on the wire.
    """
    header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45, 0, total_len, ident & 0xFFFF, 0, ttl, proto, 0, src, dst,
    )
    return header[:10] + struct.pack("!H", checksum16(header)) + header[12:]


def unpack_ipv4(packet):
    """Verify an IPv4 header and split the packet, addresses raw.

    Returns ``(src, dst, proto, total_len, ident, ttl, body)``; raises
    :class:`~repro.errors.NetworkError` on a truncated header, a
    version other than 4, or a checksum mismatch.
    """
    if len(packet) < IP_HEADER_LEN:
        raise NetworkError("truncated IPv4 header")
    header = packet[:IP_HEADER_LEN]
    (vihl, _tos, total_len, ident, _frag, ttl, proto, _csum,
     src, dst) = struct.unpack("!BBHHHBBH4s4s", header)
    if vihl >> 4 != 4:
        raise NetworkError("not an IPv4 packet (version %d)" % (vihl >> 4))
    if checksum16(header) != 0:
        raise NetworkError("IPv4 header checksum mismatch")
    return (src, dst, proto, total_len, ident, ttl,
            packet[IP_HEADER_LEN:total_len])


class TcpHeader:
    """Standard 20-byte TCP header (no options)."""

    def __init__(self, src_port, dst_port, seq, ack, flags, window=65535):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window

    def pack(self):
        return struct.pack(
            "!HHIIBBHHH",
            self.src_port, self.dst_port,
            self.seq & 0xFFFFFFFF, self.ack & 0xFFFFFFFF,
            5 << 4, self.flags, self.window, 0, 0,
        )

    @classmethod
    def unpack(cls, segment):
        if len(segment) < TCP_HEADER_LEN:
            raise NetworkError("truncated TCP header")
        (src_port, dst_port, seq, ack, offset, flags, window,
         _csum, _urg) = struct.unpack("!HHIIBBHHH", segment[:TCP_HEADER_LEN])
        data_off = (offset >> 4) * 4
        header = cls(src_port, dst_port, seq, ack, flags, window=window)
        return header, segment[data_off:]


ARP_REQUEST = 1
ARP_REPLY = 2


class ArpHeader:
    """RFC 826 ARP for Ethernet/IPv4 (28 bytes)."""

    def __init__(self, oper, sender_mac, sender_ip, target_mac, target_ip):
        self.oper = oper
        self.sender_mac = sender_mac
        self.sender_ip = sender_ip
        self.target_mac = target_mac
        self.target_ip = target_ip

    def pack(self):
        return (
            struct.pack("!HHBBH", 1, ETHERTYPE_IPV4, 6, 4, self.oper)
            + mac_bytes(self.sender_mac) + ip_bytes(self.sender_ip)
            + mac_bytes(self.target_mac) + ip_bytes(self.target_ip)
        )

    @classmethod
    def unpack(cls, packet):
        if len(packet) < 28:
            raise NetworkError("truncated ARP packet")
        htype, ptype, hlen, plen, oper = struct.unpack("!HHBBH", packet[:8])
        if htype != 1 or ptype != ETHERTYPE_IPV4:
            raise NetworkError("unsupported ARP hardware/protocol type")
        return cls(
            oper,
            mac_str(packet[8:14]), ip_str(packet[14:18]),
            mac_str(packet[18:24]), ip_str(packet[24:28]),
        )


ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0


class IcmpHeader:
    """ICMP echo request/reply (8-byte header)."""

    def __init__(self, icmp_type, ident, seq):
        self.icmp_type = icmp_type
        self.ident = ident
        self.seq = seq

    def pack(self, payload=b""):
        header = struct.pack("!BBHHH", self.icmp_type, 0, 0,
                             self.ident, self.seq)
        csum = checksum16(header + payload)
        return header[:2] + struct.pack("!H", csum) + header[4:] + payload

    @classmethod
    def unpack(cls, packet):
        if len(packet) < 8:
            raise NetworkError("truncated ICMP packet")
        if checksum16(packet) != 0:
            raise NetworkError("ICMP checksum mismatch")
        icmp_type, _code, _csum, ident, seq = struct.unpack(
            "!BBHHH", packet[:8],
        )
        return cls(icmp_type, ident, seq), packet[8:]


class UdpHeader:
    """8-byte UDP header."""

    def __init__(self, src_port, dst_port, length):
        self.src_port = src_port
        self.dst_port = dst_port
        self.length = length

    def pack(self):
        return struct.pack("!HHHH", self.src_port, self.dst_port,
                           self.length, 0)

    @classmethod
    def unpack(cls, datagram):
        if len(datagram) < UDP_HEADER_LEN:
            raise NetworkError("truncated UDP header")
        src_port, dst_port, length, _csum = struct.unpack(
            "!HHHH", datagram[:UDP_HEADER_LEN]
        )
        return cls(src_port, dst_port, length), datagram[UDP_HEADER_LEN:]
