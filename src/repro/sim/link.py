"""A shared Ethernet broadcast domain with capture taps.

The testbed LAN is one L2 segment. Delivery is switched: unicast frames go
only to the owning NIC (plus promiscuous ones), multicast frames only to
the NICs that accept the group (members are memoized per destination), and
broadcast frames to every NIC — one simulator event per frame either way,
so a 93-device LAN stays cheap. Capture taps see every frame (the
simulation's tcpdump).

Frames travel as the sender's structured :class:`~repro.net.ethernet.Ethernet`
object: every receiver and tap gets that one object, and nothing on the
segment encodes or parses bytes. Bytes exist only where a consumer reads
them — pcap export and pickling (:class:`~repro.net.pcap.PcapRecord`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from repro.faults.inject import LinkImpairment
    from repro.net.ethernet import Ethernet
    from repro.sim.engine import Simulator
    from repro.sim.nic import Nic

Tap = Callable[[float, "Ethernet"], None]

_BROADCAST_BYTES = b"\xff\xff\xff\xff\xff\xff"


class FrameCounters:
    """What a link carried.

    ``encode_count`` counts transmitted frames, one per transmission;
    ``decode_count`` counts raw frames :meth:`Nic.send_raw` parsed, and
    ``decode_errors`` the raw frames it dropped because they did not parse.
    Every transmitted frame is its sender's own object, so ``primes`` equals
    ``encode_count``.
    """

    __slots__ = ("encode_count", "decode_count", "decode_errors")

    def __init__(self):
        self.encode_count = 0
        self.decode_count = 0
        self.decode_errors = 0

    @property
    def primes(self) -> int:
        return self.encode_count

    @property
    def prime_rate(self) -> float:
        """Fraction of transmissions that carried the sender's own object:
        1.0 on a busy link, and 0.0 (never a ZeroDivisionError) on an idle
        one, since the benchmark harness reads it unconditionally."""
        return self.primes / self.encode_count if self.encode_count else 0.0


class EthernetLink:
    """A zero-loss switched segment."""

    def __init__(self, sim: "Simulator", latency: float = 0.0005, name: str = "lan"):
        self.sim = sim
        self.latency = latency
        self.name = name
        self.frames = FrameCounters()
        # Optional fault hook (repro.faults): consulted per transmitted frame
        # for loss/latency/reordering while an impairment window is active.
        self.impairment: "Optional[LinkImpairment]" = None
        self._nics: list["Nic"] = []
        self._by_mac: dict[bytes, "Nic"] = {}
        self._promiscuous: list["Nic"] = []
        self._taps: list[Tap] = []
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

    def close(self) -> None:
        """Unhook every NIC from its node and from this link: a node and its
        NICs refer to each other, and so do the link and its NICs. The link
        carries nothing afterwards."""
        for nic in self._nics:
            nic.node = nic.link = None

    def add_tap(self, tap: Tap) -> None:
        """Register a capture callback, called with ``(timestamp, frame)``
        for every transmitted frame."""
        self._taps.append(tap)

    def remove_tap(self, tap: Tap) -> None:
        self._taps.remove(tap)

    def transmit(self, sender: "Nic", frame: "Ethernet") -> None:
        """Deliver ``frame`` after the link latency (one event per frame).

        Taps see the frame at transmit time, before the impairment hook:
        capture mirrors the sender's port, and loss happens in the medium
        past it (like real tcpdump).
        """
        self.frames.encode_count += 1
        now = self.sim.now
        for tap in self._taps:
            tap(now, frame)
        delay = self.latency
        if self.impairment is not None:
            delay = self.impairment.transit_delay(now, delay)
            if delay is None:
                return
        self.sim.schedule(delay, self._deliver, sender, frame)

    def _deliver(self, sender: "Nic", frame: "Ethernet") -> None:
        """Switch a frame to its receivers with the MAC filter inlined.

        The flood path runs once per NIC per multicast frame — the hottest
        loop in the simulation — so the per-NIC accept check (promiscuous,
        own address, or a joined group, on the destination's 6 bytes)
        happens here and accepted frames go straight to
        ``node.handle_frame``.
        """
        dst = frame.dst.packed
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
                if nic is not sender:
                    nic.node.handle_frame(nic, frame)
            return
        owner = self._by_mac.get(dst)
        if owner is not None and owner is not sender:
            owner.node.handle_frame(owner, frame)
        for nic in self._promiscuous:
            if nic is not sender and nic is not owner:
                nic.node.handle_frame(nic, frame)

    def __repr__(self) -> str:
        return f"EthernetLink({self.name}, nics={len(self._nics)})"
