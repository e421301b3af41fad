"""IPv6 forwarding policy on the home router's WAN side.

With NAT44, residential IPv4 enjoys an *accidental* default-deny: unsolicited
inbound traffic has no port mapping and dies at the CPE. Routed IPv6 removes
that accident — whether a smart home keeps its implicit shield depends
entirely on the CPE's firewall (cf. "Where Have All the Firewalls Gone?",
Rye et al.). This module models the three policies real CPEs ship:

- ``open``      — plain routed /64, every WAN packet is forwarded (the
  testbed router's original behaviour, and the worst observed CPE default);
- ``stateful``  — RFC 6092-style default-deny inbound: only packets matching
  an established outbound flow pass, tracked in a connection table with idle
  timeouts;
- ``pinhole``   — ``stateful`` plus explicit per-device inbound allowances
  (the holes UPnP/PCP-style protocols punch for cameras and consoles).

The firewall never touches LAN-originated traffic; outbound packets are
always forwarded and (in the stateful modes) refresh or create flow state.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Optional

from repro.net.icmpv6 import ICMPv6, TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST
from repro.net.ipv6 import IPv6
from repro.net.mac import MacAddress
from repro.net.tcp import TCP
from repro.net.udp import UDP

FIREWALL_MODES = ("open", "stateful", "pinhole")


def firewall_sort_key(mode: str):
    """``FIREWALL_MODES`` order first, then lexicographic for strangers."""
    return (FIREWALL_MODES.index(mode) if mode in FIREWALL_MODES else len(FIREWALL_MODES), mode)


# Flow entries idle out after this much (simulated) time without traffic in
# either direction — a deliberately short CPE-class UDP/ICMP timeout so the
# expiry path is exercised inside experiment timescales.
DEFAULT_IDLE_TIMEOUT = 60.0

# Lazy garbage collection threshold for the flow table.
_GC_LIMIT = 4096

# LAN-perspective flow key: (proto, lan_ip, lan_port, remote_ip, remote_port).
# ICMPv6 echo is tracked as (58, lan_ip, identifier, remote_ip, 0).
FlowKey = tuple


class FirewallV6:
    """The WAN-side IPv6 forwarding policy of one home router.

    The router calls :meth:`note_outbound` for every LAN->WAN packet it
    forwards and :meth:`permits_inbound` for every WAN->LAN candidate.
    Time comes from the simulator clock (a callable), so flow expiry is
    deterministic and needs no scheduled events: entries are validated
    lazily against their last-activity timestamp.
    """

    def __init__(
        self,
        mode: str,
        clock: Callable[[], float],
        *,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        lookup_mac: Optional[Callable[[ipaddress.IPv6Address], Optional[MacAddress]]] = None,
    ):
        if mode not in FIREWALL_MODES:
            raise ValueError(f"unknown firewall mode {mode!r} (known: {', '.join(FIREWALL_MODES)})")
        self.mode = mode
        self._clock = clock
        self.idle_timeout = idle_timeout
        self._lookup_mac = lookup_mac or (lambda addr: None)
        self._flows: dict[FlowKey, float] = {}
        self._pinholes: set[tuple[MacAddress, int, int]] = set()
        self.passed = 0
        self.dropped = 0
        # Verdict attribution: why inbound packets passed. The adversary
        # subsystem reads these to report which door each compromise used
        # (wide-open forwarding, an established flow, or a punched pinhole).
        self.passed_open = 0
        self.passed_flow = 0
        self.passed_pinhole = 0

    # ------------------------------------------------------------------ state

    @property
    def stateful(self) -> bool:
        return self.mode in ("stateful", "pinhole")

    def flush(self) -> None:
        self._flows.clear()
        self._pinholes.clear()

    def add_pinhole(self, mac: MacAddress, proto: int, port: int) -> None:
        """Allow unsolicited inbound ``proto``/``port`` toward one device
        (a UPnP/PCP-style mapping). Only meaningful in ``pinhole`` mode."""
        self._pinholes.add((MacAddress(mac), proto, port))

    def pinholes(self) -> frozenset:
        return frozenset(self._pinholes)

    # ------------------------------------------------------------- flow keys

    @staticmethod
    def _key(proto: int, lan_ip, lan_port: int, remote_ip, remote_port: int) -> FlowKey:
        return (proto, lan_ip, lan_port, remote_ip, remote_port)

    def _outbound_key(self, packet: IPv6) -> Optional[FlowKey]:
        payload = packet.payload
        if isinstance(payload, TCP):
            return self._key(6, packet.src, payload.sport, packet.dst, payload.dport)
        if isinstance(payload, UDP):
            return self._key(17, packet.src, payload.sport, packet.dst, payload.dport)
        if isinstance(payload, ICMPv6) and payload.icmp_type == TYPE_ECHO_REQUEST:
            return self._key(58, packet.src, payload.identifier or 0, packet.dst, 0)
        return None

    def _inbound_key(self, packet: IPv6) -> Optional[FlowKey]:
        payload = packet.payload
        if isinstance(payload, TCP):
            return self._key(6, packet.dst, payload.dport, packet.src, payload.sport)
        if isinstance(payload, UDP):
            return self._key(17, packet.dst, payload.dport, packet.src, payload.sport)
        if isinstance(payload, ICMPv6) and payload.icmp_type == TYPE_ECHO_REPLY:
            return self._key(58, packet.dst, payload.identifier or 0, packet.src, 0)
        return None

    def _alive(self, key: FlowKey) -> bool:
        stamp = self._flows.get(key)
        if stamp is None:
            return False
        if self._clock() - stamp > self.idle_timeout:
            del self._flows[key]
            return False
        return True

    def _gc(self) -> None:
        if len(self._flows) <= _GC_LIMIT:
            return
        now = self._clock()
        self._flows = {k: t for k, t in self._flows.items() if now - t <= self.idle_timeout}

    # --------------------------------------------------------------- verdicts

    def note_outbound(self, packet: IPv6) -> None:
        """Record LAN->WAN traffic (always forwarded) as live flow state."""
        if not self.stateful:
            return
        key = self._outbound_key(packet)
        if key is not None:
            self.note_flow(*key)

    def note_flow(self, proto: int, lan_ip, lan_port: int, remote_ip, remote_port: int) -> None:
        """Record one outbound packet of a flow, by its header fields.

        :meth:`note_outbound` reads the fields off a forwarded packet; the
        hybrid-fidelity fast path (:mod:`repro.stack.flowpath`) calls this
        directly for the packets it elides, at the instant each would have
        reached the router."""
        if not self.stateful:
            return
        self._flows[self._key(proto, lan_ip, lan_port, remote_ip, remote_port)] = self._clock()
        self._gc()

    def permits_inbound(self, packet: IPv6) -> bool:
        """Decide one unsolicited-or-not WAN->LAN packet; counts the verdict."""
        return self._verdict(self._inbound_key(packet) if self.stateful else None)

    def permits_flow(self, proto: int, lan_ip, lan_port: int, remote_ip, remote_port: int) -> bool:
        """:meth:`permits_inbound` for a TCP or UDP packet given by its header
        fields (the fast path's elided replies)."""
        return self._verdict(self._key(proto, lan_ip, lan_port, remote_ip, remote_port) if self.stateful else None)

    def _verdict(self, key: Optional[FlowKey]) -> bool:
        if not self.stateful:
            self.passed += 1
            self.passed_open += 1
            return True
        if key is not None and self._alive(key):
            self._flows[key] = self._clock()  # refresh on inbound activity
            self.passed += 1
            self.passed_flow += 1
            return True
        if self.mode == "pinhole" and key is not None and self._permitted_pinhole(key):
            self.passed += 1
            self.passed_pinhole += 1
            return True
        self.dropped += 1
        return False

    def _permitted_pinhole(self, key: FlowKey) -> bool:
        proto, lan_ip, lan_port = key[:3]
        if proto not in (6, 17):
            return False
        mac = self._lookup_mac(lan_ip)
        if mac is None:
            return False
        return (mac, proto, lan_port) in self._pinholes
