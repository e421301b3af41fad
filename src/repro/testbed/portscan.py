"""Active port scans (§4.3) — the simulator's nmap.

Discovery follows the paper: an ICMPv6 Echo Request to the all-nodes
multicast address repopulates the router's neighbor table, which the scanner
reads to enumerate per-device IPv6 addresses (necessary because privacy
extensions make self-assigned addresses temporary). IPv4 targets come from
the DHCPv4 lease table. The scanner then runs half-open TCP SYN probes
(SYN-ACK = open, answered with RST; RST = closed) and UDP probes (payload
reply = open; ICMP Port Unreachable or silence = closed).

The paper scanned TCP 1-65535 and UDP 1-1024; the simulator's port space is
fully known, so the scan covers a candidate set (every port any profile can
open, plus common service ports) — provably equivalent on this substrate and
documented as a substitution in DESIGN.md.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Optional

from repro.net.mac import MacAddress
from repro.net.packet import Raw
from repro.net.tcp import FLAG_RST, FLAG_SYN, TCP
from repro.net.udp import UDP
from repro.stack.config import StackConfig
from repro.stack.host import HostStack
from repro.testbed.lab import Testbed

# fmt: off
COMMON_TCP_PORTS = (
    22, 23, 80, 443, 554, 1883, 7000, 8001, 8008, 8060, 8080, 8443, 8888,
    9100, 37993, 39500, 46525, 46757, 49152,
)
# fmt: on
COMMON_UDP_PORTS = (53, 69, 123, 161, 500, 1024)

SCANNER_MAC = MacAddress("02:5c:a9:00:00:99")


@dataclass
class ScanReport:
    """Open ports per device and protocol family."""

    tcp_v4: dict[str, set[int]] = field(default_factory=dict)
    tcp_v6: dict[str, set[int]] = field(default_factory=dict)
    udp_v4: dict[str, set[int]] = field(default_factory=dict)
    udp_v6: dict[str, set[int]] = field(default_factory=dict)
    scanned_v6: set[str] = field(default_factory=set)   # device names with >=1 v6 target
    scanned_v4: set[str] = field(default_factory=set)
    # the per-device v6 addresses the scan actually probed (neighbor-table
    # discovery output; feeds the WAN-exposure cross-checks)
    targets_v6: dict[str, set[ipaddress.IPv6Address]] = field(default_factory=dict)

    def v4_only_tcp(self, name: str) -> set[int]:
        return self.tcp_v4.get(name, set()) - self.tcp_v6.get(name, set())

    def v6_only_tcp(self, name: str) -> set[int]:
        return self.tcp_v6.get(name, set()) - self.tcp_v4.get(name, set())


class PortScanner:
    """A scan host attached to the testbed LAN."""

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        self.host = HostStack(
            testbed.sim,
            "scanner",
            SCANNER_MAC,
            testbed.link,
            StackConfig(iid_mode="stable", answer_echo=False),
        )
        self._tcp_probes: dict[int, tuple[str, int, int]] = {}  # sport -> (device, port, family)
        self._udp_probes: dict[int, tuple[str, int, int]] = {}
        self._next_sport = 33000
        self.report = ScanReport()
        self.host.tcp_monitor = self._on_tcp
        self.host.on_unreachable.append(self._on_unreachable)
        self._udp_open_hits: set[tuple[str, int, int]] = set()

    # ------------------------------------------------------------- discovery

    def discover_v6_targets(self) -> dict[str, list]:
        """Ping all-nodes, then read the router's neighbor table (§4.3)."""
        self.testbed.router.ping_all_nodes()
        self.testbed.sim.run(5.0)
        mac_names = {mac: name for mac, name in self.testbed.mac_table().items()}
        targets: dict[str, list] = {}
        for addr, mac in self.testbed.router.neighbor_table().items():
            name = mac_names.get(mac)
            if name is not None:
                targets.setdefault(name, []).append(addr)
        return targets

    def discover_v4_targets(self) -> dict[str, list]:
        mac_names = {mac: name for mac, name in self.testbed.mac_table().items()}
        targets: dict[str, list] = {}
        for mac, addr in self.testbed.router.v4_lease_table().items():
            name = mac_names.get(mac)
            if name is not None:
                targets.setdefault(name, []).append(addr)
        return targets

    # ---------------------------------------------------------------- probing

    def _sport(self) -> int:
        self._next_sport += 1
        if self._next_sport > 64000:
            self._next_sport = 33000
        return self._next_sport

    def _probe_tcp(self, device: str, address, port: int, family: int) -> None:
        sport = self._sport()
        self._tcp_probes[sport] = (device, port, family)
        syn = TCP(sport, port, FLAG_SYN, seq=self.host.rng.getrandbits(32))
        if family == 6:
            self.host.send_ipv6(address, 6, syn, mark_used=False)
        else:
            self.host.send_ipv4(address, 6, syn)

    def _on_tcp(self, local_ip, remote_ip, segment: TCP, family: int) -> bool:
        probe = self._tcp_probes.get(segment.dport)
        if probe is None:
            return False
        device, port, probe_family = probe
        if segment.sport != port:
            return True
        if segment.syn and segment.ack_flag:
            table = self.report.tcp_v6 if probe_family == 6 else self.report.tcp_v4
            table.setdefault(device, set()).add(port)
            # half-open scan: tear down with RST
            rst = TCP(segment.dport, segment.sport, FLAG_RST, seq=segment.ack)
            if probe_family == 6:
                self.host.send_ipv6(remote_ip, 6, rst, mark_used=False)
            else:
                self.host.send_ipv4(remote_ip, 6, rst)
        return True

    def _probe_udp(self, device: str, address, port: int, family: int) -> None:
        sport = self._sport()
        self._udp_probes[sport] = (device, port, family)
        self.host.udp_bind(sport, lambda src, src_port, payload, key=(device, port, family): self._udp_open(key))
        self.host.udp_send(address, port, Raw(b"\x00"), sport=sport)

    def _udp_open(self, key: tuple[str, int, int]) -> None:
        if key in self._udp_open_hits:
            return
        self._udp_open_hits.add(key)
        device, port, family = key
        table = self.report.udp_v6 if family == 6 else self.report.udp_v4
        table.setdefault(device, set()).add(port)

    def _on_unreachable(self, src, embedded: bytes, family: int) -> None:
        # Port Unreachable confirms "closed"; nothing to record (closed is
        # the default), but receiving it validates the probe reached a host.
        return

    # ------------------------------------------------------------------- run

    def run(
        self,
        tcp_ports: Optional[tuple] = None,
        udp_ports: Optional[tuple] = None,
        batch: int = 400,
    ) -> ScanReport:
        """Scan every discovered target; returns the report."""
        tcp_ports = tcp_ports if tcp_ports is not None else self._candidate_tcp_ports()
        udp_ports = udp_ports if udp_ports is not None else COMMON_UDP_PORTS
        self.host.boot()
        self.testbed.sim.run(30.0)  # let the scanner autoconfigure

        v6_targets = self.discover_v6_targets()
        v4_targets = self.discover_v4_targets()
        self.report.scanned_v6 = set(v6_targets)
        self.report.scanned_v4 = set(v4_targets)
        self.report.targets_v6 = {name: set(addresses) for name, addresses in v6_targets.items()}

        probes: list[tuple] = []
        for device, addresses in sorted(v6_targets.items()):
            for address in addresses:
                probes.extend(("tcp", device, address, port, 6) for port in tcp_ports)
                probes.extend(("udp", device, address, port, 6) for port in udp_ports)
        for device, addresses in sorted(v4_targets.items()):
            for address in addresses:
                probes.extend(("tcp", device, address, port, 4) for port in tcp_ports)
                probes.extend(("udp", device, address, port, 4) for port in udp_ports)

        sim = self.testbed.sim
        for start in range(0, len(probes), batch):
            chunk = probes[start : start + batch]
            at = (start // batch) * 2.0
            for kind, device, address, port, family in chunk:
                if kind == "tcp":
                    sim.schedule(at, self._probe_tcp, device, address, port, family)
                else:
                    sim.schedule(at, self._probe_udp, device, address, port, family)
        sim.run((len(probes) // batch + 2) * 2.0 + 10.0)
        return self.report

    def _candidate_tcp_ports(self) -> tuple:
        candidates = set(COMMON_TCP_PORTS)
        for profile in self.testbed.profiles:
            candidates.update(profile.open_tcp_v4)
            candidates.update(profile.open_tcp_v6)
        return tuple(sorted(candidates))
