"""Virtual network devices.

A :class:`NetDevice` is a virtio-net-like queue pair.  Two devices can be
joined by :class:`LinkedDevices` into a lossless full-duplex link (the
paper's client and server machines sit on the same switch), optionally
with a configurable per-frame drop pattern for loss/retransmission tests.
"""

from __future__ import annotations

from collections import deque

from repro.kernel.lib import entrypoint, work
from repro.kernel.net.headers import mac_bytes

#: Standard Ethernet MTU.
MTU = 1500


class NetDevice:
    """One NIC: a transmit hook and a receive queue.

    ``mac`` is given as ``aa:bb:cc:dd:ee:ff`` and kept as 6 raw bytes,
    the form frames carry it in.
    """

    def __init__(self, name, mac, costs):
        self.name = name
        self.mac = mac_bytes(mac)
        self.costs = costs
        self.rx_queue = deque()
        self.peer = None
        self.tx_frames = 0
        self.rx_frames = 0
        self.dropped = 0
        self.duplicated = 0
        #: Optional callable(frame_index) -> bool; True means drop.
        self.drop_fn = None
        #: Optional callable(frame_index) -> bool; True delivers the frame
        #: twice (fault injection: a retransmitting switch or a buggy
        #: driver ring; TCP must de-duplicate by sequence number).
        self.dup_fn = None

    @entrypoint("lwip")
    def transmit(self, frame):
        """Send one Ethernet frame to the link."""
        work(self.costs.driver_xmit)
        work(len(frame) * self.costs.memcpy_per_byte)
        self.tx_frames += 1
        if self.peer is None:
            self.dropped += 1
            return
        index = self.peer.rx_frames + self.peer.dropped
        if self.peer.drop_fn is not None and self.peer.drop_fn(index):
            self.peer.dropped += 1
            return
        copies = 1
        if self.peer.dup_fn is not None and self.peer.dup_fn(index):
            copies = 2
            self.peer.duplicated += 1
        for _ in range(copies):
            self.peer.rx_queue.append(bytes(frame))
            self.peer.rx_frames += 1

    def poll(self):
        """Pop the next received frame, or None."""
        if not self.rx_queue:
            return None
        return self.rx_queue.popleft()

    @property
    def has_rx(self):
        return bool(self.rx_queue)

    def __repr__(self):
        return "NetDevice(%s tx=%d rx=%d)" % (
            self.name, self.tx_frames, self.rx_frames,
        )


class LinkedDevices:
    """A full-duplex point-to-point link between two NICs."""

    def __init__(self, costs, name_a="dev-a", name_b="dev-b"):
        self.a = NetDevice(name_a, "02:00:00:00:00:0a", costs)
        self.b = NetDevice(name_b, "02:00:00:00:00:0b", costs)
        self.a.peer = self.b
        self.b.peer = self.a
