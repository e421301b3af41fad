"""The internet-origin attacker: address synthesis + WAN-side probing.

Unlike :mod:`repro.testbed.portscan` (the paper's on-LAN nmap, which reads
the router's neighbor table), a WAN attacker has no vantage inside the home.
Before probing anything it must *guess* addresses inside the home's routed
/64 — the search space NAT44 used to hide:

- **EUI-64 SLAAC addresses are synthesizable.** The IID embeds the MAC
  (RFC 4291 app. A), so an attacker who knows a vendor's OUI only has to
  sweep the low NIC-suffix range that consumer production lines actually
  ship — ``len(ouis) * suffix_budget`` candidates, trivially scannable.
- **Low interface identifiers are synthesizable.** Routers hand out DHCPv6
  leases (and number themselves) from the bottom of the IID space;
  ``::1``..``::1fff`` is a standard hitlist.
- **RFC 8981 temporary and RFC 7217 stable IIDs are not.** 2^64 uniformly
  random identifiers put brute force out of reach, so devices behind privacy
  addresses are *undiscoverable* from the WAN even with no firewall at all.

Candidate-set membership is evaluated analytically (``synthesizes``) instead
of injecting millions of miss probes; every *hit* candidate — plus a few
decoy misses — is then genuinely probed from the WAN side of the router
(ICMPv6 echo, half-open TCP SYN, UDP), so firewall behaviour is exercised by
real packets. DESIGN.md §exposure documents the substitution.
"""

from __future__ import annotations

import functools
import ipaddress
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.net.icmpv6 import (
    ICMPv6,
    TYPE_DEST_UNREACHABLE,
    TYPE_ECHO_REPLY,
)
from repro.net.ip6 import AddressScope, as_ipv6, eui64_interface_id, from_prefix_and_iid, mac_from_eui64
from repro.net.ipv6 import IPv6
from repro.net.mac import MacAddress
from repro.net.packet import Layer, Raw
from repro.net.tcp import FLAG_RST, FLAG_SYN, TCP
from repro.net.udp import UDP
from repro.testbed.lab import Testbed
from repro.testbed.portscan import COMMON_TCP_PORTS, COMMON_UDP_PORTS

# The attacker's globally-routable vantage point, well outside the home /64.
WAN_SCANNER_V6 = as_ipv6("2001:db8:adad::9")

DEFAULT_SUFFIX_BUDGET = 1024   # per-OUI NIC-suffix sweep (low production range)
DEFAULT_LOW_IID_BUDGET = 8192  # ::1 .. ::1fff hitlist (router + DHCPv6 leases)


@dataclass(frozen=True)
class AttackerKnowledge:
    """What the remote attacker knows about the target population.

    ``ouis`` are 3-byte vendor prefixes (harvested from public OUI
    registries); ``suffix_budget`` bounds the NIC-suffix sweep per OUI;
    ``low_iid_budget`` bounds the low-IID hitlist. Together they define the
    candidate set the attacker would enumerate against a /64.
    """

    ouis: tuple[bytes, ...]
    suffix_budget: int = DEFAULT_SUFFIX_BUDGET
    low_iid_budget: int = DEFAULT_LOW_IID_BUDGET

    @property
    def eui64_space(self) -> int:
        """Candidates per /64 in the OUI x NIC-suffix sweep."""
        return len(self.ouis) * self.suffix_budget

    @property
    def low_iid_space(self) -> int:
        """Candidates per /64 in the low-IID hitlist sweep."""
        return self.low_iid_budget

    @functools.cached_property
    def _oui_set(self) -> frozenset:
        # cached_property writes the instance __dict__ directly, which a
        # frozen dataclass permits; membership tests run per candidate.
        return frozenset(self.ouis)

    def synthesizes_low_iid(self, address) -> bool:
        """Is the interface identifier inside the ``::1..`` hitlist sweep?"""
        iid = int(as_ipv6(address)) & 0xFFFFFFFFFFFFFFFF
        return iid < self.low_iid_budget

    def synthesizes_eui64(self, address) -> bool:
        """Does the IID embed a known OUI with an in-budget NIC suffix?"""
        mac = mac_from_eui64(as_ipv6(address))
        if mac is None:
            return False
        return mac.packed[:3] in self._oui_set and int.from_bytes(mac.packed[3:6], "big") < self.suffix_budget

    def synthesizes(self, prefix, address) -> bool:
        """Would the candidate sweep of ``prefix`` include ``address``?

        True exactly when the address falls in the low-IID hitlist or embeds
        an EUI-64 IID whose OUI is known and whose NIC suffix is within the
        sweep budget. Temporary/stable IIDs draw from 2^64 values and are
        (with overwhelming probability) never synthesized. The per-strategy
        predicates are split out so :mod:`repro.exposure.analysis` can
        attribute each discovered address to the strategy that finds it.
        """
        network = prefix if isinstance(prefix, ipaddress.IPv6Network) else ipaddress.IPv6Network(prefix)
        addr = as_ipv6(address)
        if addr not in network:
            return False
        return self.synthesizes_low_iid(addr) or self.synthesizes_eui64(addr)


def inventory_oui_knowledge(
    suffix_budget: int = DEFAULT_SUFFIX_BUDGET,
    low_iid_budget: int = DEFAULT_LOW_IID_BUDGET,
) -> AttackerKnowledge:
    """Knowledge of every OUI in the device inventory.

    Models an attacker armed with the public IEEE OUI registry: consumer IoT
    vendors are a small, known set, so assuming full OUI coverage is the
    conservative (attacker-favourable) baseline.
    """
    from repro.devices import build_inventory

    ouis = sorted({profile.mac.packed[:3] for profile in build_inventory()})
    return AttackerKnowledge(tuple(ouis), suffix_budget, low_iid_budget)


@dataclass
class ExposureReport:
    """What the WAN attacker learned about one device."""

    device: str
    gua_count: int = 0
    addr_kinds: tuple[str, ...] = ()
    discovered: tuple[ipaddress.IPv6Address, ...] = ()
    responsive: bool = False            # answered an ICMPv6 echo from the WAN
    open_tcp: set[int] = field(default_factory=set)
    open_udp: set[int] = field(default_factory=set)
    unreachable_seen: int = 0           # ICMPv6 Port Unreachables (closed-UDP proof)

    @property
    def discoverable(self) -> bool:
        """The attacker's candidate sweep contains >= 1 of its addresses."""
        return bool(self.discovered)

    @property
    def reachable(self) -> bool:
        """Any WAN probe elicited a response from the device itself."""
        return self.responsive or bool(self.open_tcp) or bool(self.open_udp) or self.unreachable_seen > 0


@dataclass
class WanScanResult:
    """One complete WAN scan of one home."""

    firewall: str
    devices: dict[str, ExposureReport] = field(default_factory=dict)
    probes_sent: int = 0
    decoys: tuple[ipaddress.IPv6Address, ...] = ()
    decoy_hits: int = 0                 # decoy responses — must stay 0
    wan_dropped: int = 0                # inbound probes the firewall dropped
    extra_probed: int = 0               # hitlist-replay targets probed on top
                                        # of the synthesized candidate set

    @property
    def discoverable_devices(self) -> list[str]:
        return sorted(name for name, report in self.devices.items() if report.discoverable)

    @property
    def reachable_devices(self) -> list[str]:
        return sorted(name for name, report in self.devices.items() if report.reachable)


class _Vantage:
    """The scanner's Internet endpoint: collects replies routed out of the home."""

    def __init__(self, scanner: "WanScanner"):
        self.scanner = scanner
        self.reachable = True

    def handle(self, packet) -> None:
        self.scanner._receive(packet)


class WanScanner:
    """A simulated remote attacker scanning one home from the open Internet.

    Probes are injected on the WAN side of the router (``from_wan_v6``), so
    they traverse the router's v6 firewall exactly like real inbound
    traffic; replies flow device -> router -> Internet back to the vantage
    endpoint.

    ``extra_targets`` maps device names to additional concrete addresses to
    probe beyond the synthesized candidate set — the hitlist-replay case
    (Rye et al.): addresses that leaked to servers are probed directly even
    when no sweep could synthesize them (e.g. RFC 8981 temporary GUAs).
    They never enter ``discovered`` — analytic candidate-set membership
    stays a pure function of the attacker's sweep knowledge.
    """

    def __init__(
        self,
        testbed: Testbed,
        knowledge: Optional[AttackerKnowledge] = None,
        *,
        address=WAN_SCANNER_V6,
        decoys: int = 3,
        extra_targets: Optional[Mapping[str, Sequence[ipaddress.IPv6Address]]] = None,
    ):
        self.testbed = testbed
        self.sim = testbed.sim
        self.knowledge = knowledge if knowledge is not None else inventory_oui_knowledge()
        self.address = as_ipv6(address)
        self.decoy_budget = decoys
        self.extra_targets = dict(extra_targets or {})
        self.rng = testbed.sim.rng_for("wanscan")
        testbed.internet.attach_endpoint(self.address, _Vantage(self))

        self.result = WanScanResult(firewall=testbed.router.firewall.mode)
        self._addr_device: dict[ipaddress.IPv6Address, str] = {}
        self._tcp_probes: dict[int, tuple[str, int]] = {}   # sport -> (device, port)
        self._udp_probes: dict[int, tuple[str, int]] = {}
        self._echo_probes: dict[int, str] = {}              # identifier -> device ("" = decoy)
        self._next_sport = 40000
        self._next_ident = 0x5000

    # ------------------------------------------------------------- discovery

    def census(self) -> None:
        """Ground-truth address census + analytic candidate-set membership.

        Populates one :class:`ExposureReport` per device with the subset of
        its GUAs the attacker's sweep would synthesize. Only these (plus
        decoys) are probed with real packets — equivalent to the full
        enumeration, since non-synthesized addresses by definition receive
        no probe.
        """
        prefix = self.testbed.router.lan_v6_prefix
        for device in self.testbed.devices:
            records = device.stack.addrs.assigned(AddressScope.GUA)
            discovered = sorted(
                (record.address for record in records if self.knowledge.synthesizes(prefix, record.address)),
                key=int,
            )
            self.result.devices[device.name] = ExposureReport(
                device=device.name,
                gua_count=len(records),
                addr_kinds=tuple(sorted({record.iid_kind for record in records})),
                discovered=tuple(discovered),
            )
            for record in records:
                self._addr_device[record.address] = device.name

    def _decoy_addresses(self) -> list[ipaddress.IPv6Address]:
        """Synthesized candidates that do NOT exist — the misses we do probe."""
        if not self.knowledge.ouis:
            return []
        prefix = self.testbed.router.lan_v6_prefix.network_address
        decoys: list[ipaddress.IPv6Address] = []
        suffix = self.knowledge.suffix_budget - 1
        while len(decoys) < self.decoy_budget and suffix >= 0:
            mac = MacAddress(self.knowledge.ouis[0] + suffix.to_bytes(3, "big"))
            candidate = from_prefix_and_iid(prefix, eui64_interface_id(mac))
            if candidate not in self._addr_device:
                decoys.append(candidate)
            suffix -= 1
        return decoys

    # ---------------------------------------------------------------- probing

    def _inject(self, dst, proto: int, transport: Layer) -> None:
        self.testbed.router.from_wan_v6(IPv6(self.address, dst, proto, transport, hop_limit=57))

    def _sport(self) -> int:
        self._next_sport += 1
        if self._next_sport > 64000:
            self._next_sport = 40000
        return self._next_sport

    def _probe_echo(self, device: str, address) -> None:
        self._next_ident += 1
        self._echo_probes[self._next_ident] = device
        self.result.probes_sent += 1
        self._inject(address, 58, ICMPv6.echo_request(self._next_ident, 1, b"wan-sweep"))

    def _probe_tcp(self, device: str, address, port: int) -> None:
        sport = self._sport()
        self._tcp_probes[sport] = (device, port)
        self.result.probes_sent += 1
        self._inject(address, 6, TCP(sport, port, FLAG_SYN, seq=self.rng.getrandbits(32)))

    def _probe_udp(self, device: str, address, port: int) -> None:
        sport = self._sport()
        self._udp_probes[sport] = (device, port)
        self.result.probes_sent += 1
        self._inject(address, 17, UDP(sport, port, Raw(b"\x00")))

    def _receive(self, packet) -> None:
        payload = packet.payload
        if isinstance(payload, ICMPv6):
            if payload.icmp_type == TYPE_ECHO_REPLY:
                device = self._echo_probes.get(payload.identifier)
                if device == "":
                    self.result.decoy_hits += 1
                elif device is not None:
                    self.result.devices[device].responsive = True
            elif payload.icmp_type == TYPE_DEST_UNREACHABLE:
                device = self._addr_device.get(packet.src)
                if device is not None:
                    self.result.devices[device].unreachable_seen += 1
        elif isinstance(payload, TCP):
            probe = self._tcp_probes.get(payload.dport)
            if probe is None:
                return
            device, port = probe
            if payload.sport != port:
                return
            if payload.syn and payload.ack_flag:
                self.result.devices[device].open_tcp.add(port)
                # half-open scan: tear the embryonic connection down
                self._inject(packet.src, 6, TCP(payload.dport, payload.sport, FLAG_RST, seq=payload.ack))
        elif isinstance(payload, UDP):
            probe = self._udp_probes.get(payload.dport)
            if probe is None:
                return
            device, port = probe
            if payload.sport == port:
                self.result.devices[device].open_udp.add(port)

    # ------------------------------------------------------------------- run

    def _tcp_candidates(self, profile) -> tuple[int, ...]:
        return tuple(sorted(set(COMMON_TCP_PORTS) | set(profile.open_tcp_v6)))

    def _udp_candidates(self, profile) -> tuple[int, ...]:
        return tuple(sorted(set(COMMON_UDP_PORTS) | set(profile.open_udp_v6)))

    def run(self, *, batch: int = 400) -> WanScanResult:
        """Census, then probe every synthesized candidate; returns the result."""
        router = self.testbed.router
        dropped_before = router.firewall.dropped
        self.census()

        probes: list[tuple] = []
        for device in self.testbed.devices:
            report = self.result.devices[device.name]
            targets = list(report.discovered)
            for address in self.extra_targets.get(device.name, ()):
                if address not in targets:
                    targets.append(address)
                    self.result.extra_probed += 1
            for address in targets:
                probes.append(("echo", device.name, address, 0))
                probes.extend(("tcp", device.name, address, port) for port in self._tcp_candidates(device.profile))
                probes.extend(("udp", device.name, address, port) for port in self._udp_candidates(device.profile))
        decoys = self._decoy_addresses()
        self.result.decoys = tuple(decoys)
        probes.extend(("echo", "", address, 0) for address in decoys)

        sim = self.sim
        for start in range(0, len(probes), batch):
            chunk = probes[start : start + batch]
            at = (start // batch) * 2.0
            for kind, device, address, port in chunk:
                if kind == "echo":
                    sim.schedule(at, self._probe_echo, device, address)
                elif kind == "tcp":
                    sim.schedule(at, self._probe_tcp, device, address, port)
                else:
                    sim.schedule(at, self._probe_udp, device, address, port)
        sim.run((len(probes) // batch + 2) * 2.0 + 10.0)

        self.result.wan_dropped = router.firewall.dropped - dropped_before
        return self.result
