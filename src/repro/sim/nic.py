"""A network interface: MAC filtering and multicast group membership."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.ethernet import Ethernet
from repro.net.mac import MacAddress
from repro.net.packet import DecodeError

if TYPE_CHECKING:
    from repro.sim.link import EthernetLink
    from repro.sim.node import Node


class Nic:
    """One interface of a node, attached to a link."""

    def __init__(self, node: "Node", mac: MacAddress, link: "EthernetLink", promiscuous: bool = False):
        self.node = node
        self.mac = MacAddress(mac)
        self.link = link
        self.promiscuous = promiscuous
        # The filter state as raw bytes: the link's delivery filters on the
        # destination's packed bytes, so rejected frames never compare
        # MacAddress objects.
        self._mac_bytes = self.mac.packed
        self._multicast_bytes = {MacAddress("33:33:00:00:00:01").packed}  # all-nodes
        link.attach(self)

    def join_multicast(self, mac: MacAddress) -> None:
        self._multicast_bytes.add(MacAddress(mac).packed)
        self.link.invalidate_flood()

    def send(self, frame: Ethernet) -> None:
        """Put a frame on the wire.

        The link carries this very object to every receiver and tap, and its
        bytes are computed only at pcap export, so the frame must not be
        changed after this call.
        """
        self.link.transmit(self, frame)

    def send_raw(self, data: bytes) -> None:
        """Parse ``data`` once and send the frame; bytes that do not parse
        are dropped (counted in the link's ``decode_errors``)."""
        counters = self.link.frames
        counters.decode_count += 1
        try:
            frame = Ethernet.decode(data)
        except DecodeError:
            counters.decode_errors += 1
            return
        self.link.transmit(self, frame)

    def __repr__(self) -> str:
        return f"Nic({self.mac} on {self.link.name})"
