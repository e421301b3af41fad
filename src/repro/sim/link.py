"""A shared Ethernet broadcast domain with capture taps.

The testbed LAN is one L2 segment. Delivery is switched: unicast frames go
only to the owning NIC (plus promiscuous ones), multicast/broadcast frames go
to every NIC — one simulator event per frame either way, so a 93-device LAN
stays cheap. Capture taps see every frame (the simulation's tcpdump).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.framecache import FrameCache

if TYPE_CHECKING:
    from repro.faults.inject import LinkImpairment
    from repro.net.ethernet import Ethernet
    from repro.sim.engine import Simulator
    from repro.sim.nic import Nic

Tap = Callable[[float, bytes], None]
FrameTap = Callable[[float, bytes, "Optional[Ethernet]"], None]

_BROADCAST_BYTES = b"\xff\xff\xff\xff\xff\xff"


class EthernetLink:
    """A zero-loss switched segment.

    The link owns the simulation's :class:`FrameCache` (one LAN per
    simulated home), so a frame's bytes are parsed exactly once no matter
    how many NICs accept it or how many capture consumers observe it.
    """

    def __init__(self, sim: "Simulator", latency: float = 0.0005, name: str = "lan"):
        self.sim = sim
        self.latency = latency
        self.name = name
        self.frames = FrameCache()
        # Optional fault hook (repro.faults): consulted per transmitted frame
        # for loss/latency/reordering while an impairment window is active.
        self.impairment: "Optional[LinkImpairment]" = None
        self._nics: list["Nic"] = []
        self._by_mac: dict[bytes, "Nic"] = {}
        self._promiscuous: list["Nic"] = []
        self._taps: list[Tap] = []
        self._frame_taps: list[FrameTap] = []
        # Flood membership memo: multicast dst bytes -> NICs whose filter
        # accepts that group, in attach order. Group membership changes
        # rarely (joins happen during address configuration); recomputing the
        # accept predicate for all ~95 NICs on every NDP multicast would
        # otherwise dominate delivery.
        self._flood: dict[bytes, tuple["Nic", ...]] = {}

    def invalidate_flood(self) -> None:
        """Drop memoized flood member lists (after join/leave/attach)."""
        self._flood.clear()

    def attach(self, nic: "Nic") -> None:
        if nic in self._nics:
            raise ValueError(f"{nic} already attached to {self.name}")
        self._nics.append(nic)
        self._by_mac[nic.mac.packed] = nic
        if nic.promiscuous:
            self._promiscuous.append(nic)
        self._flood.clear()

    def add_tap(self, tap: Tap) -> None:
        """Register a capture callback invoked for every transmitted frame."""
        self._taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self._taps.remove(tap)

    def add_frame_tap(self, tap: FrameTap) -> None:
        """Register a decode-aware capture callback.

        Called with ``(timestamp, raw bytes, decoded frame-or-None)``; the
        decode goes through the shared :class:`FrameCache`, so NIC delivery
        of the same frame costs nothing extra.
        """
        self._frame_taps.append(tap)

    def remove_frame_tap(self, tap: FrameTap) -> None:
        self._frame_taps.remove(tap)

    def transmit(self, sender: "Nic", frame: bytes, decoded: "Optional[Ethernet]" = None) -> None:
        """Deliver ``frame`` after the link latency (one event per frame).

        When the sender supplies its structured ``decoded`` object
        (:meth:`Nic.send` always does), the frame cache is primed *before*
        any tap or receiver observes the frame, so the whole segment shares
        the sender's layer chain and the steady-state decode count is zero.
        Byte-identical retransmissions keep the first cached object, exactly
        as decode-side caching would.
        """
        if decoded is not None:
            decoded = self.frames.prime(frame, decoded)
        for tap in self._taps:
            tap(self.sim.now, frame)
        if self._frame_taps:
            if decoded is None:
                decoded = self.frames.decode(frame)
            for frame_tap in self._frame_taps:
                frame_tap(self.sim.now, frame, decoded)
        if len(frame) < 6:
            return
        delay = self.latency
        if self.impairment is not None:
            # Taps above already saw the frame: capture mirrors the sender's
            # port, loss happens in the medium past it (like real tcpdump).
            delay = self.impairment.transit_delay(self.sim.now, delay)
            if delay is None:
                return
        self.sim.schedule(delay, self._deliver, sender, frame, decoded)

    def _deliver(self, sender: "Nic", frame: bytes, decoded: "Optional[Ethernet]" = None) -> None:
        """Switch a frame to its receivers with the MAC filter inlined.

        The flood path runs once per NIC per multicast frame — the hottest
        loop in the simulation — so the per-NIC accept check (promiscuous,
        own address, or a joined group, on the raw destination bytes)
        happens here and accepted frames go straight to
        ``node.handle_frame``. The decode fallback stays lazy: a raw frame
        nobody accepts is never parsed.
        """
        if len(frame) < 14:
            return
        dst = frame[0:6]
        if dst[0] & 0x01:  # multicast / broadcast: flood to group members
            members = self._flood.get(dst)
            if members is None:
                if dst == _BROADCAST_BYTES:
                    members = tuple(self._nics)
                else:
                    members = tuple(
                        nic
                        for nic in self._nics
                        if nic.promiscuous or dst in nic._multicast_bytes or dst == nic._mac_bytes
                    )
                self._flood[dst] = members
            for nic in members:
                if nic is sender:
                    continue
                if decoded is None:
                    decoded = self.frames.decode(frame)
                    if decoded is None:
                        return
                nic.node.handle_frame(nic, decoded)
            return
        owner = self._by_mac.get(dst)
        if owner is not None and owner is not sender:
            if decoded is None:
                decoded = self.frames.decode(frame)
                if decoded is None:
                    return
            owner.node.handle_frame(owner, decoded)
        for nic in self._promiscuous:
            if nic is not sender and nic is not owner:
                if decoded is None:
                    decoded = self.frames.decode(frame)
                    if decoded is None:
                        return
                nic.node.handle_frame(nic, decoded)

    def __repr__(self) -> str:
        return f"EthernetLink({self.name}, nics={len(self._nics)})"
