"""The host-side network stack.

One ``HostStack`` instance backs each simulated device (and each phone). It
implements, subject to its :class:`~repro.stack.config.StackConfig`:

- IPv6 Neighbor Discovery: router solicitation, RA processing, neighbor
  solicitation/advertisement, duplicate address detection;
- SLAAC link-local and global addresses with EUI-64, temporary (RFC 8981) or
  stable (RFC 7217) interface identifiers, plus self-assigned ULAs for
  Matter/HomeKit-style local fabrics;
- stateless (INFORMATION-REQUEST) and stateful (SOLICIT/REQUEST) DHCPv6;
- RDNSS consumption;
- DHCPv4 + ARP on the IPv4 side;
- a stub DNS resolver with caller-selected transport family (so device
  models can reproduce quirks such as "sends AAAA queries only over IPv4");
- miniature UDP and TCP socket layers, including open-port service
  listeners that the active port scanner probes.
"""

from __future__ import annotations

import hashlib
import ipaddress
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.arp import ARP, OP_REQUEST as ARP_REQUEST
from repro.net.dhcpv4 import (
    ACK as DHCP4_ACK,
    CLIENT_PORT as DHCP4_CLIENT_PORT,
    DHCPv4,
    OFFER as DHCP4_OFFER,
    SERVER_PORT as DHCP4_SERVER_PORT,
)
from repro.net.dhcpv6 import (
    ALL_DHCP_RELAY_AGENTS_AND_SERVERS,
    CLIENT_PORT as DHCP6_CLIENT_PORT,
    DHCPv6,
    MSG_ADVERTISE,
    MSG_REPLY,
    SERVER_PORT as DHCP6_SERVER_PORT,
    duid_ll,
)
from repro.net.dns import DNS, Question
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, ETHERTYPE_IPV6, Ethernet
from repro.net.icmpv4 import ICMPv4, TYPE_ECHO_REQUEST as ICMP4_ECHO_REQUEST
from repro.net.icmpv6 import (
    ICMPv6,
    RDNSSOption,
    SourceLinkLayerOption,
    TargetLinkLayerOption,
    TYPE_ECHO_REQUEST,
    TYPE_NEIGHBOR_ADVERT,
    TYPE_NEIGHBOR_SOLICIT,
    TYPE_ROUTER_ADVERT,
)
from repro.net.ip6 import (
    ALL_NODES,
    ALL_ROUTERS,
    AddressScope,
    UNSPECIFIED,
    as_ipv6,
    classify_address,
    multicast_mac,
    solicited_node_multicast,
)
from repro.net.ipv4 import IPv4, as_ipv4
from repro.net.ipv6 import IPv6
from repro.net.mac import MacAddress
from repro.net.packet import Layer, Raw
from repro.net.tcp import TCP
from repro.net.udp import UDP
from repro.sim.nic import Nic
from repro.sim.node import Node
from repro.stack.addresses import AddressManager, AddressRecord
from repro.stack.config import DnsServers, StackConfig
from repro.stack.neighbor import ResolutionCache
from repro.stack.tcpflows import TcpEngine

BROADCAST_V4 = as_ipv4("255.255.255.255")
ZERO_V4 = as_ipv4("0.0.0.0")

DAD_DELAY = 1.0
RS_INTERVAL = 4.0
RS_ATTEMPTS = 3
DNS_TIMEOUT = 3.0
DNS_BACKOFF_JITTER = 0.5   # upper bound of the uniform seeded delay added to each retry

UdpHandler = Callable[[object, int, Layer], None]


@dataclass
class StackMetrics:
    """Observable symptoms of one host's run (picklable).

    The fault analysis (:mod:`repro.faults.analysis`) classifies device
    degradation by comparing these counters between a baseline run and a
    fault-injected run: retry storms show up as ``dns_retries``, upstream
    outages as ``dns_failures``, and happy-eyeballs rescues as fallbacks
    recorded by the device layer.
    """

    dns_queries: int = 0
    dns_retries: int = 0
    dns_timeouts: int = 0
    dns_failures: int = 0         # budget exhausted, caller saw None
    flow_attempts: int = 0
    flow_successes: int = 0
    flow_failures: int = 0
    fallbacks: int = 0            # v6 -> v4 happy-eyeballs rescues
    dns_timeout_times: list = field(default_factory=list)
    flow_failure_times: list = field(default_factory=list)
    flow_success_times: list = field(default_factory=list)

    @property
    def last_symptom(self) -> Optional[float]:
        """When the most recent failure symptom happened (or None)."""
        times = self.dns_timeout_times + self.flow_failure_times
        return max(times) if times else None


class HostStack(Node):
    """A simulated host attached to the testbed LAN."""

    # Hybrid-fidelity hook (repro.stack.flowpath): set by the lab assembly so
    # device behaviours can offer steady-state sends to the flow-level path.
    flow_path = None

    def __init__(self, sim, name: str, mac: MacAddress, link, config: Optional[StackConfig] = None):
        super().__init__(sim, name)
        self.mac = MacAddress(mac)
        self.config = config or StackConfig()
        self.nic = self.add_nic(Nic(self, self.mac, link))
        self.rng = sim.rng_for(f"host/{name}")
        # Retry/backoff randomness lives on its own derived stream so a
        # fault-triggered retransmission never perturbs the clean-path draws
        # (txids, ephemeral ports) that shape the no-fault goldens.
        self._retry_rng = sim.rng_for(f"dns-retry/{name}")
        self.metrics = StackMetrics()
        self.addrs = AddressManager(self.mac, self.rng)
        self.neighbors = ResolutionCache()
        self.arp = ResolutionCache()
        self.dns_servers = DnsServers()

        # IPv4 state
        self.ipv4_address: Optional[ipaddress.IPv4Address] = None
        self.ipv4_gateway: Optional[ipaddress.IPv4Address] = None
        self.ipv4_netmask: Optional[ipaddress.IPv4Address] = None
        self._dhcp4_xid: Optional[int] = None

        # IPv6 state
        self.default_router_lla: Optional[ipaddress.IPv6Address] = None
        self.default_router_mac: Optional[MacAddress] = None
        self.onlink_prefixes: list[ipaddress.IPv6Network] = []
        self.ra_seen = False
        self._rs_sent = 0
        self._dhcp6_xid: Optional[int] = None
        self.dhcpv6_lease: Optional[ipaddress.IPv6Address] = None
        self._duid = duid_ll(self.mac)
        self._ipv6_active = False    # set once the IPv6 side has started

        # transport state
        self.tcp6 = TcpEngine(self._tcp6_send, self._schedule, self.rng)
        self.tcp4 = TcpEngine(self._tcp4_send, self._schedule, self.rng)
        self._udp_handlers: dict[int, UdpHandler] = {}
        self._dns_pending: dict[int, tuple] = {}

        # hooks
        self.on_ra: list[Callable[[ICMPv6], None]] = []
        # scanner hooks: a tcp_monitor may consume raw segments before the
        # engine sees them; unreachable/echo hooks surface ICMP events.
        self.tcp_monitor: Optional[Callable[[object, object, TCP, int], bool]] = None
        self.on_unreachable: list[Callable[[object, bytes, int], None]] = []
        self.on_echo_reply: list[Callable[[object, int], None]] = []

        self._booted = False

    # ------------------------------------------------------------------ boot

    def boot(self) -> None:
        """(Re)start the stack: clear state and begin auto-configuration."""
        self.reset()
        self._booted = True
        self.sim.schedule(self.rng.uniform(0.1, 1.0), self._dhcp4_start)
        if self.config.ipv6_enabled:
            self.sim.schedule(self.rng.uniform(1.0, 3.0), self._ipv6_start)
        self._open_service_ports()

    def reset(self) -> None:
        self.addrs.flush()
        self.neighbors.flush()
        self.arp.flush()
        self.dns_servers.clear()
        self.ipv4_address = self.ipv4_gateway = self.ipv4_netmask = None
        self._v4_network = None
        self._v4_network_key = None
        self.default_router_lla = self.default_router_mac = None
        self.onlink_prefixes = []
        self.ra_seen = False
        self._rs_sent = 0
        self._dhcp4_xid = self._dhcp6_xid = None
        self.dhcpv6_lease = None
        self._ipv6_active = False
        self.tcp6.flush()
        self.tcp4.flush()
        self._dns_pending.clear()
        self.metrics = StackMetrics()

    def _schedule(self, delay: float, fn: Callable, *args):
        return self.sim.schedule(delay, fn, *args)

    def _open_service_ports(self) -> None:
        banner = f"{self.name}-svc".encode()
        for port in self.config.open_tcp_ports_v6:
            self.tcp6.listen(port, lambda req, b=banner: b)
        for port in self.config.open_tcp_ports_v4:
            self.tcp4.listen(port, lambda req, b=banner: b)

    # ------------------------------------------------------------ IPv6 start

    def _ipv6_start(self) -> None:
        if not self._booted:
            return
        self._ipv6_active = True
        if self.config.forms_addresses and self.config.form_lla:
            self._form_lla()
        if self.config.form_ula and self.config.forms_addresses:
            self._form_ulas()
        self._send_rs()

    def _form_lla(self) -> None:
        # EUI-64 stacks use EUI-64 LLAs; privacy-extension stacks use a
        # stable opaque LLA (real OSes keep the same link-local across boots
        # and only randomize global addresses).
        mode = "eui64" if self.config.iid_mode == "eui64" else "stable"
        record = self.addrs.form("fe80::", mode, origin="slaac")
        self._start_dad(record)
        if self.config.lla_rotations:
            span = 400.0
            for i in range(self.config.lla_rotations):
                self.sim.schedule(span * (i + 1), self._rotate_lla)

    def _rotate_lla(self) -> None:
        if not self._booted:
            return
        record = self.addrs.form("fe80::", "temporary", origin="slaac")
        self._start_dad(record)

    def _ula_prefix(self) -> ipaddress.IPv6Network:
        seed = self.config.ula_prefix_seed or self.name
        # The 40-bit global ID (RFC 4193) from a stable digest, never hash(),
        # which is salted per process.
        global_id = int.from_bytes(hashlib.sha256(f"ula/{seed}".encode()).digest()[:5], "big")
        base = int(as_ipv6("fd00::")) | (global_id << 80)
        return ipaddress.IPv6Network((base, 64))

    def _form_ulas(self) -> None:
        prefix = self._ula_prefix()
        self.onlink_prefixes.append(prefix)
        first = self.addrs.form(prefix.network_address, self.config.iid_mode, origin="ula-self")
        self._start_dad(first)
        extras = max(1, self.config.ula_addr_count) - 1
        if extras:
            spread = 1000.0 / (extras + 1)
            for i in range(1, extras + 1):
                self.sim.schedule(spread * i, self._form_extra_ula, prefix)

    def _form_extra_ula(self, prefix) -> None:
        if not self._booted:
            return
        record = self.addrs.form(prefix.network_address, "temporary", origin="ula-self")
        self._start_dad(record)

    def _send_rs(self) -> None:
        if not self._booted or self.ra_seen or self._rs_sent >= RS_ATTEMPTS:
            return
        self._rs_sent += 1
        lla = self.addrs.assigned(AddressScope.LLA)
        src = lla[-1].address if lla else UNSPECIFIED
        rs = ICMPv6.router_solicit(self.mac if src != UNSPECIFIED else None)
        self._send_ipv6_multicast(ALL_ROUTERS, rs, src=src, hop_limit=255)
        self.sim.schedule(RS_INTERVAL, self._send_rs)

    # ------------------------------------------------------------------- DAD

    def _dad_required(self, record: AddressRecord) -> bool:
        if not self.config.dad_enabled:
            return False
        return record.scope not in self.config.dad_skip_scopes

    def _start_dad(self, record: AddressRecord) -> None:
        group = solicited_node_multicast(record.address)
        self.nic.join_multicast(multicast_mac(group))
        if not self._dad_required(record):
            record.tentative = False
            record.dad_performed = False
            self._address_ready(record)
            return
        ns = ICMPv6.neighbor_solicit(record.address)
        self._send_ipv6_multicast(group, ns, src=UNSPECIFIED, hop_limit=255)
        self.sim.schedule(DAD_DELAY, self._finish_dad, record)

    def _finish_dad(self, record: AddressRecord) -> None:
        if self.addrs.get(record.address) is not record:
            return  # conflicted and removed meanwhile
        record.tentative = False
        record.dad_performed = True
        self._address_ready(record)

    def _dad_conflict(self, record: AddressRecord) -> None:
        self.addrs.remove(record.address)
        prefix = ipaddress.IPv6Network((int(record.address) & ~0xFFFFFFFFFFFFFFFF, 64))
        self.addrs.note_dad_conflict(prefix.network_address)
        if record.iid_kind in ("temporary", "stable"):
            retry = self.addrs.form(prefix.network_address, record.iid_kind, origin=record.origin)
            self._start_dad(retry)

    def _address_ready(self, record: AddressRecord) -> None:
        # Announce the new address with an unsolicited Neighbor Advertisement
        # (common stack behaviour; keeps neighbors' caches fresh and makes
        # every assigned address observable on the wire).
        na = ICMPv6.neighbor_advert(record.address, self.mac, solicited=False, override=True)
        self._send_ipv6_multicast(ALL_NODES, na, src=record.address, hop_limit=255)

    # -------------------------------------------------------------- RA intake

    def _process_ra(self, src: ipaddress.IPv6Address, ra: ICMPv6) -> None:
        first_ra = not self.ra_seen
        self.ra_seen = True
        source_ll = ra.option(SourceLinkLayerOption)
        if ra.router_lifetime > 0:
            self.default_router_lla = src
            if source_ll is not None:
                self.default_router_mac = source_ll.mac
                self.neighbors.learn(src, source_ll.mac)
        if self.config.forms_addresses:
            for pio in ra.prefixes():
                network = pio.network
                if pio.on_link and network not in self.onlink_prefixes:
                    self.onlink_prefixes.append(network)
                if pio.autonomous and pio.prefix_length == 64:
                    self._maybe_slaac(network)
        rdnss = ra.option(RDNSSOption)
        if rdnss is not None and self.config.accept_rdnss:
            for server in rdnss.servers:
                if server not in self.dns_servers.v6:
                    self.dns_servers.v6.append(server)
        if first_ra:
            if ra.managed and self.config.dhcpv6_stateful:
                self.sim.schedule(self.rng.uniform(0.2, 1.0), self._dhcp6_solicit)
            elif ra.other_config and self.config.dhcpv6_stateless:
                self.sim.schedule(self.rng.uniform(0.2, 1.0), self._dhcp6_information_request)
        for hook in self.on_ra:
            hook(ra)

    def _maybe_slaac(self, network: ipaddress.IPv6Network) -> None:
        if classify_address(network.network_address) == AddressScope.GUA and not self.config.accept_gua_prefix:
            return
        if any(r for r in self.addrs.records if r.origin == "slaac" and r.address in network):
            return
        gua_mode = self.config.gua_iid_mode or self.config.iid_mode
        record = self.addrs.form(network.network_address, gua_mode, origin="slaac")
        self._start_dad(record)
        # Additional (rotated) global addresses always use temporary IIDs,
        # whatever policy formed the first one.
        extras = max(1, self.config.temporary_addr_count) - 1
        if extras:
            spread = self.config.temporary_spread / (extras + 1)
            for i in range(1, extras + 1):
                self.sim.schedule(self.config.temporary_start + spread * i, self._form_temporary, network)

    def _form_temporary(self, network: ipaddress.IPv6Network) -> None:
        if not self._booted:
            return
        predecessors = [
            r
            for r in self.addrs.records
            if r.origin == "slaac" and r.iid_kind == "temporary" and not r.deprecated and r.address in network
        ]
        record = self.addrs.form(network.network_address, "temporary", origin="slaac")
        self._start_dad(record)
        if self.config.temporary_rotate_out:
            # RFC 8981: the fresh temporary becomes the preferred source; its
            # predecessors ride out a valid-lifetime tail, then vanish.
            for old in predecessors:
                if old is record:
                    continue
                self.addrs.deprecate(old.address)
                self.sim.schedule(self.config.temporary_valid_tail, self.addrs.retire, old.address)

    # ----------------------------------------------------------------- DHCPv6

    def _await_lla(self, retry: Callable, attempt: int) -> bool:
        """DHCPv6 exchanges need a usable link-local source; wait for DAD."""
        if self.addrs.assigned(AddressScope.LLA) or not self.config.form_lla or not self.config.forms_addresses:
            return True
        if attempt < 10:
            self.sim.schedule(1.0, retry, attempt + 1)
        return False

    def _dhcp6_solicit(self, attempt: int = 0) -> None:
        if not self._booted or not self._await_lla(self._dhcp6_solicit, attempt):
            return
        self._dhcp6_xid = self.rng.getrandbits(24)
        solicit = DHCPv6.solicit(self._dhcp6_xid, self._duid, iaid=int(self.mac) & 0xFFFFFFFF)
        self._udp6_to_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS, DHCP6_CLIENT_PORT, DHCP6_SERVER_PORT, solicit)

    def _dhcp6_information_request(self, attempt: int = 0) -> None:
        if not self._booted or not self._await_lla(self._dhcp6_information_request, attempt):
            return
        self._dhcp6_xid = self.rng.getrandbits(24)
        request = DHCPv6.information_request(self._dhcp6_xid, self._duid)
        self._udp6_to_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS, DHCP6_CLIENT_PORT, DHCP6_SERVER_PORT, request)

    def _handle_dhcpv6(self, message: DHCPv6) -> None:
        if message.transaction_id != self._dhcp6_xid:
            return
        if message.msg_type == MSG_ADVERTISE:
            request = DHCPv6(
                3,  # REQUEST
                message.transaction_id,
                client_duid=self._duid,
                server_duid=message.server_duid,
                iaid=message.iaid or (int(self.mac) & 0xFFFFFFFF),
                has_ia_na=True,
                requested_options=[23],
            )
            self._udp6_to_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS, DHCP6_CLIENT_PORT, DHCP6_SERVER_PORT, request)
            return
        if message.msg_type == MSG_REPLY:
            for server in message.dns_servers:
                if server not in self.dns_servers.v6:
                    self.dns_servers.v6.append(server)
            for lease in message.ia_addresses:
                self.dhcpv6_lease = lease.address
                if self.config.use_dhcpv6_address:
                    record = self.addrs.add(lease.address, origin="dhcpv6", iid_kind="lease")
                    self._start_dad(record)

    # ----------------------------------------------------------------- DHCPv4

    def _dhcp4_start(self) -> None:
        if not self._booted:
            return
        self._dhcp4_xid = self.rng.getrandbits(32)
        self._dhcp4_send(DHCPv4.discover(self._dhcp4_xid, self.mac))
        self.sim.schedule(4.0, self._dhcp4_retry)

    def _dhcp4_retry(self) -> None:
        if self._booted and self.ipv4_address is None and self._dhcp4_xid is not None:
            self._dhcp4_send(DHCPv4.discover(self._dhcp4_xid, self.mac))

    def _dhcp4_send(self, message: DHCPv4) -> None:
        packet = IPv4(ZERO_V4, BROADCAST_V4, 17, UDP(DHCP4_CLIENT_PORT, DHCP4_SERVER_PORT, message))
        self.nic.send(Ethernet(MacAddress.BROADCAST, self.mac, ETHERTYPE_IPV4, packet))

    def _handle_dhcpv4(self, message: DHCPv4) -> None:
        if message.xid != self._dhcp4_xid or message.client_mac != self.mac:
            return
        if message.msg_type == DHCP4_OFFER:
            self._dhcp4_send(DHCPv4.request(message.xid, self.mac, message.yiaddr, message.server_id))
        elif message.msg_type == DHCP4_ACK:
            self.ipv4_address = message.yiaddr
            self.ipv4_gateway = message.router
            self.ipv4_netmask = message.subnet_mask
            self.dns_servers.v4 = list(message.dns_servers)

    # -------------------------------------------------------------- frame RX

    def handle_frame(self, nic: Nic, frame: Ethernet) -> None:
        if frame.ethertype == ETHERTYPE_IPV6 and isinstance(frame.payload, IPv6):
            self._rx_ipv6(frame.src, frame.payload)
        elif frame.ethertype == ETHERTYPE_IPV4 and isinstance(frame.payload, IPv4):
            self._rx_ipv4(frame.payload)
        elif frame.ethertype == ETHERTYPE_ARP and isinstance(frame.payload, ARP):
            self._rx_arp(frame.payload)

    # -- IPv4 receive ---------------------------------------------------------

    def _rx_arp(self, message: ARP) -> None:
        if self.ipv4_address is None:
            return
        for packet in self.arp.learn(message.sender_ip, message.sender_mac):
            self._tx_ipv4(packet, message.sender_mac)
        if message.op == ARP_REQUEST and message.target_ip == self.ipv4_address:
            reply = ARP.reply(self.mac, self.ipv4_address, message.sender_mac, message.sender_ip)
            self.nic.send(Ethernet(message.sender_mac, self.mac, ETHERTYPE_ARP, reply))

    def _rx_ipv4(self, packet: IPv4) -> None:
        mine = self.ipv4_address is not None and packet.dst == self.ipv4_address
        if packet.dst != BROADCAST_V4 and not mine:
            return
        payload = packet.payload
        if isinstance(payload, UDP):
            inner = payload.payload
            if payload.dport == DHCP4_CLIENT_PORT and isinstance(inner, DHCPv4):
                self._handle_dhcpv4(inner)
            elif payload.sport == 53 and isinstance(inner, DNS):
                self._handle_dns_response(inner)
            else:
                self._rx_udp(packet.src, payload, family=4, broadcast=not mine)
        elif isinstance(payload, TCP) and mine:
            if self.tcp_monitor is not None and self.tcp_monitor(packet.dst, packet.src, payload, 4):
                return
            self.tcp4.on_segment(self.ipv4_address, packet.src, payload)
        elif isinstance(payload, ICMPv4) and mine:
            if payload.icmp_type == ICMP4_ECHO_REQUEST and self.config.answer_echo:
                reply = ICMPv4.echo_reply(payload.identifier, payload.sequence, payload.data)
                self.send_ipv4(packet.src, 1, reply)
            elif payload.icmp_type == 0:
                for hook in self.on_echo_reply:
                    hook(packet.src, 4)
            elif payload.icmp_type == 3:
                for hook in self.on_unreachable:
                    hook(packet.src, payload.data, 4)

    # -- IPv6 receive -----------------------------------------------------------

    def _rx_ipv6(self, src_mac: MacAddress, packet: IPv6) -> None:
        if not self.config.ipv6_enabled or not self._ipv6_active:
            return
        dst = packet.dst
        # One address-table probe decides acceptance: a unicast destination
        # is ours if we hold a record for it — assigned (deliver) or
        # tentative (a DAD collision we must observe either way).
        record = None
        if classify_address(dst) != AddressScope.MULTICAST:
            record = self.addrs.get(dst)
            if record is None:
                return
        payload = packet.payload
        if isinstance(payload, ICMPv6):
            self._rx_icmpv6(packet, payload)
        elif isinstance(payload, UDP):
            inner = payload.payload
            if payload.dport == DHCP6_CLIENT_PORT and isinstance(inner, DHCPv6):
                self._handle_dhcpv6(inner)
            elif payload.sport == 53 and isinstance(inner, DNS):
                self._handle_dns_response(inner)
            else:
                self._rx_udp(packet.src, payload, family=6, broadcast=record is None)
        elif isinstance(payload, TCP) and record is not None and not record.tentative:
            if self.tcp_monitor is not None and self.tcp_monitor(dst, packet.src, payload, 6):
                return
            self.tcp6.on_segment(dst, packet.src, payload)

    def _rx_icmpv6(self, packet: IPv6, message: ICMPv6) -> None:
        t = message.icmp_type
        if (
            t in (TYPE_ROUTER_ADVERT, TYPE_NEIGHBOR_SOLICIT, TYPE_NEIGHBOR_ADVERT)
            and packet.hop_limit != 255
        ):
            # RFC 4861 §6.1: NDP with a decremented hop limit crossed a
            # router — discard it so WAN-injected RA/NS/NA forwarded onto the
            # LAN cannot poison the neighbor cache or hijack the default route.
            return
        if t == TYPE_ROUTER_ADVERT:
            self._process_ra(packet.src, message)
        elif t == TYPE_NEIGHBOR_SOLICIT and message.target is not None:
            record = self.addrs.get(message.target)
            if record is None:
                return
            if record.tentative:
                if packet.src == UNSPECIFIED:
                    # Another node is running DAD on our tentative address.
                    self._dad_conflict(record)
                return
            source_ll = message.option(SourceLinkLayerOption)
            if source_ll is not None:
                for queued in self.neighbors.learn(packet.src, source_ll.mac):
                    self._tx_ipv6(queued, source_ll.mac)
            na = ICMPv6.neighbor_advert(message.target, self.mac, solicited=packet.src != UNSPECIFIED)
            reply_dst = packet.src if packet.src != UNSPECIFIED else ALL_NODES
            self.send_ipv6(reply_dst, 58, na, src=record.address, hop_limit=255, mark_used=False)
        elif t == TYPE_NEIGHBOR_ADVERT and message.target is not None:
            record = self.addrs.get(message.target)
            if record is not None and record.tentative:
                self._dad_conflict(record)
                return
            target_ll = message.option(TargetLinkLayerOption)
            if target_ll is not None:
                for queued in self.neighbors.learn(message.target, target_ll.mac):
                    self._tx_ipv6(queued, target_ll.mac)
        elif t == 129:  # echo reply
            for hook in self.on_echo_reply:
                hook(packet.src, 6)
        elif t == 1:  # destination unreachable
            for hook in self.on_unreachable:
                hook(packet.src, message.data, 6)
        elif t == TYPE_ECHO_REQUEST and self.config.answer_echo:
            source = None
            if classify_address(packet.dst) != AddressScope.MULTICAST:
                source = packet.dst
            reply = ICMPv6.echo_reply(message.identifier, message.sequence, message.data)
            self.send_ipv6(packet.src, 58, reply, src=source, mark_used=False)

    def _rx_udp(self, src_ip, datagram: UDP, family: int, *, broadcast: bool = False) -> None:
        handler = self._udp_handlers.get(datagram.dport)
        if handler is not None:
            handler(src_ip, datagram.sport, datagram.payload)
            return
        if broadcast:
            # RFC 1122 §3.2.2 / RFC 4443 §2.4: never answer a datagram sent
            # to a broadcast or multicast address with an ICMP error.
            return
        open_ports = self.config.open_udp_ports_v6 if family == 6 else self.config.open_udp_ports_v4
        if datagram.dport in open_ports:
            response = UDP(datagram.dport, datagram.sport, Raw(f"{self.name}-udp".encode()))
            if family == 6:
                self.send_ipv6(src_ip, 17, response)
            else:
                self.send_ipv4(src_ip, 17, response)
        elif family == 6:
            original = IPv6(src_ip, self._any_v6_source() or UNSPECIFIED, 17, datagram)
            self.send_ipv6(src_ip, 58, ICMPv6.port_unreachable(original.encode()), mark_used=False)
        elif family == 4 and self.ipv4_address is not None:
            original = IPv4(src_ip, self.ipv4_address, 17, datagram)
            self.send_ipv4(src_ip, 1, ICMPv4.port_unreachable(original.encode()))

    # ----------------------------------------------------------------- send v6

    def _any_v6_source(self):
        assigned = self.addrs.assigned()
        return assigned[-1].address if assigned else None

    def _send_ipv6_multicast(self, group, transport: Layer, src=UNSPECIFIED, hop_limit: int = 255) -> None:
        packet = IPv6(src, group, 58 if isinstance(transport, ICMPv6) else 17, transport, hop_limit=hop_limit)
        self.nic.send(Ethernet(multicast_mac(group), self.mac, ETHERTYPE_IPV6, packet))

    def _udp6_to_multicast(self, group, sport: int, dport: int, payload: Layer) -> None:
        lla = self.addrs.assigned(AddressScope.LLA)
        src = lla[-1].address if lla else UNSPECIFIED
        packet = IPv6(src, group, 17, UDP(sport, dport, payload), hop_limit=1)
        self.nic.send(Ethernet(multicast_mac(group), self.mac, ETHERTYPE_IPV6, packet))

    def send_ipv6(
        self,
        dst,
        next_header: int,
        transport: Layer,
        *,
        src=None,
        hop_limit: int = 64,
        mark_used: bool = True,
    ) -> bool:
        """Route an IPv6 packet: on-link via NDP resolution, off-link via the
        default router. Returns False when unroutable."""
        if not self.config.ipv6_enabled:
            return False
        dst = as_ipv6(dst)
        scope = classify_address(dst)
        if src is None:
            record = self.addrs.best_source(dst)
            if record is None:
                return False
            src = record.address
            if mark_used:
                record.used = True
        else:
            record = self.addrs.get(src)
            if record is not None and mark_used:
                record.used = True
        packet = IPv6(src, dst, next_header, transport, hop_limit=hop_limit)
        if scope == AddressScope.MULTICAST:
            self.nic.send(Ethernet(multicast_mac(dst), self.mac, ETHERTYPE_IPV6, packet))
            return True
        if self._on_link(dst):
            mac = self.neighbors.lookup(dst)
            if mac is not None:
                self._tx_ipv6(packet, mac)
            elif self.neighbors.enqueue(dst, packet):
                self._solicit_neighbor(dst)
            return True
        if self.default_router_mac is None:
            return False
        self._tx_ipv6(packet, self.default_router_mac)
        return True

    def _on_link(self, dst: ipaddress.IPv6Address) -> bool:
        if classify_address(dst) == AddressScope.LLA:
            return True
        return any(dst in network for network in self.onlink_prefixes)

    def _solicit_neighbor(self, dst: ipaddress.IPv6Address) -> None:
        group = solicited_node_multicast(dst)
        ns = ICMPv6.neighbor_solicit(dst, self.mac)
        lla = self.addrs.assigned(AddressScope.LLA)
        assigned = self.addrs.assigned()
        src = lla[-1].address if lla else (assigned[-1].address if assigned else UNSPECIFIED)
        self._send_ipv6_multicast(group, ns, src=src, hop_limit=255)

    def _tx_ipv6(self, packet: IPv6, dst_mac: MacAddress) -> None:
        self.nic.send(Ethernet(dst_mac, self.mac, ETHERTYPE_IPV6, packet))

    # ----------------------------------------------------------------- send v4

    def send_ipv4(self, dst, proto: int, transport: Layer) -> bool:
        if self.ipv4_address is None:
            return False
        dst = as_ipv4(dst)
        packet = IPv4(self.ipv4_address, dst, proto, transport)
        if dst == BROADCAST_V4:
            self.nic.send(Ethernet(MacAddress.BROADCAST, self.mac, ETHERTYPE_IPV4, packet))
            return True
        next_hop = dst if self._v4_on_link(dst) else self.ipv4_gateway
        if next_hop is None:
            return False
        mac = self.arp.lookup(next_hop)
        if mac is not None:
            self._tx_ipv4(packet, mac)
        elif self.arp.enqueue(next_hop, packet):
            request = ARP.request(self.mac, self.ipv4_address, next_hop)
            self.nic.send(Ethernet(MacAddress.BROADCAST, self.mac, ETHERTYPE_ARP, request))
        return True

    def _v4_on_link(self, dst: ipaddress.IPv4Address) -> bool:
        if self.ipv4_netmask is None or self.ipv4_address is None:
            return False
        # The on-link network only changes with the DHCP lease; cache it so
        # per-packet routing stops re-parsing the netmask string.
        key = (self.ipv4_address, self.ipv4_netmask)
        if self._v4_network_key != key:
            self._v4_network = ipaddress.IPv4Network(
                (int(self.ipv4_address) & int(self.ipv4_netmask), str(self.ipv4_netmask))
            )
            self._v4_network_key = key
        return dst in self._v4_network

    def _tx_ipv4(self, packet: IPv4, dst_mac: MacAddress) -> None:
        self.nic.send(Ethernet(dst_mac, self.mac, ETHERTYPE_IPV4, packet))

    def wan_gateway(self, family: int, dst) -> Optional[MacAddress]:
        """The MAC a unicast packet to off-link ``dst`` goes to at once, with
        the answer taken in; None when the send path would drop it, keep it
        on the link, or queue it behind address resolution."""
        if family == 6:
            if not self.config.ipv6_enabled or not self._ipv6_active or self._on_link(dst):
                return None
            return self.default_router_mac
        if self.ipv4_address is None or self.ipv4_gateway is None:
            return None
        return None if self._v4_on_link(dst) else self.arp.lookup(self.ipv4_gateway)

    # ---------------------------------------------------------------- TCP glue

    def _tcp6_send(self, local_ip, remote_ip, segment: TCP) -> None:
        self.send_ipv6(remote_ip, 6, segment, src=local_ip)

    def _tcp4_send(self, local_ip, remote_ip, segment: TCP) -> None:
        self.send_ipv4(remote_ip, 6, segment)

    def tcp_request(self, dst, dport: int, requests: list[bytes], on_complete, on_fail, timeout: float = 10.0):
        """Open a TCP connection (family chosen by ``dst``), send each request
        payload in turn, collect responses, then close."""
        if isinstance(dst, ipaddress.IPv6Address) or (isinstance(dst, str) and ":" in dst):
            dst6 = as_ipv6(dst)
            source = self.addrs.best_source(dst6)
            if source is None:
                on_fail("no-ipv6-source")
                return None
            source.used = True
            return self.tcp6.connect(source.address, dst6, dport, requests, on_complete, on_fail, timeout=timeout)
        if self.ipv4_address is None:
            on_fail("no-ipv4-address")
            return None
        return self.tcp4.connect(
            self.ipv4_address, as_ipv4(dst), dport, requests, on_complete, on_fail, timeout=timeout
        )

    # ---------------------------------------------------------------- UDP glue

    def udp_bind(self, port: int, handler: UdpHandler) -> None:
        self._udp_handlers[port] = handler

    def udp_send(self, dst, dport: int, payload: Layer, sport: Optional[int] = None, src=None) -> bool:
        if sport is None:
            sport = self.rng.randint(32768, 60999)
        if isinstance(dst, ipaddress.IPv6Address) or (isinstance(dst, str) and ":" in dst):
            return self.send_ipv6(dst, 17, UDP(sport, dport, payload), src=src)
        return self.send_ipv4(dst, 17, UDP(sport, dport, payload))

    # --------------------------------------------------------------- DNS stub

    def resolve(self, name: str, qtype: int, family: int, callback: Callable[[Optional[DNS]], None]) -> bool:
        """Issue a DNS query over the given transport family (4 or 6).

        ``callback`` receives the response message, or None once the retry
        budget is exhausted / no resolver exists. Returns False when no
        resolver transport exists.
        """
        return self._dns_attempt(name, qtype, family, callback, 0)

    def _dns_attempt(self, name: str, qtype: int, family: int, callback, attempt: int) -> bool:
        servers = self.dns_servers.v6 if family == 6 else self.dns_servers.v4
        if not servers:
            callback(None)
            return False
        # Attempt 0 draws txid and sport from the host stream in the exact
        # clean-path order; retransmissions draw from the dedicated retry
        # stream so the clean goldens cannot shift.
        rng = self.rng if attempt == 0 else self._retry_rng
        txid = rng.getrandbits(16)
        while txid in self._dns_pending:
            txid = (txid + 1) & 0xFFFF
        query = DNS.query(txid, name, qtype)
        sport = rng.randint(32768, 60999)
        self.metrics.dns_queries += 1
        if attempt:
            self.metrics.dns_retries += 1
        flow_path = self.flow_path
        elided = attempt == 0 and flow_path is not None and flow_path.try_dns(self, family, servers[0], query, sport)
        # The fast path takes only lookups it answers: they need no timeout.
        timeout_event = None if elided else self.sim.schedule(DNS_TIMEOUT, self._dns_timeout, txid)
        self._dns_pending[txid] = (callback, timeout_event, Question(name, qtype), family, attempt)
        if elided:
            return True
        sent = self.udp_send(servers[0], 53, query, sport=sport)
        if not sent:
            timeout_event.cancel()
            del self._dns_pending[txid]
            callback(None)
            return False
        return True

    def _dns_timeout(self, txid: int) -> None:
        entry = self._dns_pending.pop(txid, None)
        if entry is None:
            return
        callback, _timeout_event, question, family, attempt = entry
        self.metrics.dns_timeouts += 1
        self.metrics.dns_timeout_times.append(self.sim.now)
        if attempt < self.config.dns_retry_budget and self._booted:
            delay = self.config.dns_backoff_base * (2 ** attempt) + self._retry_rng.random() * DNS_BACKOFF_JITTER
            self.sim.schedule(delay, self._dns_attempt, question.name, question.qtype, family, callback, attempt + 1)
            return
        self.metrics.dns_failures += 1
        callback(None)

    def _handle_dns_response(self, message: DNS) -> None:
        entry = self._dns_pending.pop(message.txid, None)
        if entry is None:
            return
        callback, timeout_event, question = entry[0], entry[1], entry[2]
        if timeout_event is not None:
            timeout_event.cancel()
        if message.question is not None and message.question != question:
            callback(None)
            return
        callback(message)
