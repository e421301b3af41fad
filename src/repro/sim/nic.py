"""A network interface: MAC filtering and multicast group membership."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.ethernet import Ethernet
from repro.net.mac import MacAddress

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
        # The filter state as raw bytes: the link's delivery filters on frame
        # bytes directly, so rejected frames never construct a MacAddress.
        self._mac_bytes = self.mac.packed
        self._multicast_bytes = {MacAddress("33:33:00:00:00:01").packed}  # all-nodes
        link.attach(self)

    def join_multicast(self, mac: MacAddress) -> None:
        self._multicast_bytes.add(MacAddress(mac).packed)
        self.link.invalidate_flood()

    def leave_multicast(self, mac: MacAddress) -> None:
        self._multicast_bytes.discard(MacAddress(mac).packed)
        self.link.invalidate_flood()

    def send(self, frame: Ethernet, wire: "bytes | None" = None) -> None:
        """Serialize and put a frame on the wire.

        The structured ``frame`` rides along with its bytes so the link can
        prime its :class:`~repro.net.framecache.FrameCache` before delivery:
        receivers and taps share the sender's object and never re-parse.
        Callers that resend an identical frame periodically (the router's
        RAs) may pass the previously encoded ``wire`` bytes to skip even the
        template-assisted encode.
        """
        self.link.transmit(self, frame.encode() if wire is None else wire, frame)

    def send_raw(self, frame: bytes) -> None:
        self.link.transmit(self, frame)

    def __repr__(self) -> str:
        return f"Nic({self.mac} on {self.link.name})"
