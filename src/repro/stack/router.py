"""The testbed home router (the paper's custom Linux + dnsmasq gateway).

One LAN interface serves the IoT devices; the WAN side is the simulated
Internet (IPv4 natively, IPv6 via the tunnel the paper obtained from
Hurricane Electric). Depending on the active :class:`NetworkConfig` (Table 2)
it runs:

- an RA daemon (SLAAC prefix + optional RDNSS, M/O flags),
- a DHCPv6 server (stateless DNS configuration and/or stateful IA_NA leases),
- a DHCPv4 server,
- NAT44 for outbound IPv4,
- plain IPv6 forwarding for the routed /64.

The router also maintains the IPv6 neighbor table the active port scanner
reads (§4.3) and answers ICMPv6 echo on its own addresses.
"""

from __future__ import annotations

import ipaddress
from typing import TYPE_CHECKING, Optional

from repro.net.arp import ARP, OP_REQUEST as ARP_REQUEST
from repro.net.dhcpv4 import (
    ACK as DHCP4_ACK,
    CLIENT_PORT as DHCP4_CLIENT_PORT,
    DHCPv4,
    DISCOVER as DHCP4_DISCOVER,
    OFFER as DHCP4_OFFER,
    OP_REPLY as DHCP4_OP_REPLY,
    REQUEST as DHCP4_REQUEST,
    SERVER_PORT as DHCP4_SERVER_PORT,
)
from repro.net.dhcpv6 import (
    CLIENT_PORT as DHCP6_CLIENT_PORT,
    DHCPv6,
    IAAddress,
    MSG_ADVERTISE,
    MSG_INFORMATION_REQUEST,
    MSG_REPLY,
    MSG_REQUEST,
    MSG_SOLICIT,
    SERVER_PORT as DHCP6_SERVER_PORT,
    duid_ll,
)
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, ETHERTYPE_IPV6, Ethernet
from repro.net.icmpv6 import (
    ICMPv6,
    MTUOption,
    PrefixInfoOption,
    RDNSSOption,
    SourceLinkLayerOption,
    TargetLinkLayerOption,
    TYPE_ECHO_REPLY,
    TYPE_ECHO_REQUEST,
    TYPE_NEIGHBOR_ADVERT,
    TYPE_NEIGHBOR_SOLICIT,
    TYPE_ROUTER_SOLICIT,
)
from repro.net.ip6 import (
    ALL_NODES,
    AddressScope,
    UNSPECIFIED,
    as_ipv6,
    classify_address,
    link_local_from_mac,
    multicast_mac,
    solicited_node_multicast,
)
from repro.net.ipv4 import IPv4, as_ipv4
from repro.net.ipv6 import IPv6
from repro.net.mac import MacAddress
from repro.net.tcp import TCP
from repro.net.udp import UDP
from repro.sim.nic import Nic
from repro.sim.node import Node
from repro.stack.config import NetworkConfig
from repro.stack.firewall import FirewallV6
from repro.stack.neighbor import ResolutionCache

if TYPE_CHECKING:
    from repro.cloud.internet import Internet
    from repro.faults.inject import RouterFaultState

RA_INTERVAL = 30.0
BROADCAST_V4 = as_ipv4("255.255.255.255")
ZERO_V4 = as_ipv4("0.0.0.0")


class Router(Node):
    """The smart-home gateway between the LAN and the simulated Internet."""

    def __init__(
        self,
        sim,
        link,
        internet: "Internet",
        *,
        mac: MacAddress = MacAddress("02:60:8c:00:00:01"),
        lan_v4_network: str = "192.168.10.0/24",
        lan_v6_prefix: str = "2001:db8:100::/64",
        wan_v4_address: str = "23.119.7.42",
    ):
        super().__init__(sim, "router")
        self.mac = MacAddress(mac)
        self.internet = internet
        self.nic = self.add_nic(Nic(self, self.mac, link))
        self.rng = sim.rng_for("router")

        self.lan_v4_network = ipaddress.IPv4Network(lan_v4_network)
        self.v4_address = as_ipv4(int(self.lan_v4_network.network_address) + 1)
        self.wan_v4_address = as_ipv4(wan_v4_address)
        self.lan_v6_prefix = ipaddress.IPv6Network(lan_v6_prefix)
        self.v6_gua = as_ipv6(int(self.lan_v6_prefix.network_address) + 1)
        self.v6_lla = link_local_from_mac(self.mac)
        self._own_v6 = frozenset((self.v6_lla, self.v6_gua))

        self.config: Optional[NetworkConfig] = None
        self.neighbors = ResolutionCache()
        self.arp = ResolutionCache()
        self.firewall = self._build_firewall("open")
        # Optional fault hook (repro.faults): RA suppression, DHCPv6 outage,
        # DNS blackhole and uplink flaps, consulted at each decision point.
        self.faults: "Optional[RouterFaultState]" = None

        # DHCPv4 leases: MAC -> IPv4
        self._v4_leases: dict[MacAddress, ipaddress.IPv4Address] = {}
        self._next_v4_host = 50
        # Stateful DHCPv6 leases: DUID -> IPv6
        self._v6_leases: dict[bytes, ipaddress.IPv6Address] = {}
        self._next_v6_host = 0x1000
        self._server_duid = duid_ll(self.mac)

        # NAT44: (proto, public_port) -> (device ip, device port, remote ip)
        self._nat_out: dict[tuple, int] = {}
        self._nat_in: dict[tuple, tuple] = {}
        self._next_nat_port = 20000

        self._ra_event = None
        # The RA is a pure function of the active config, so its frame is
        # built once per configure() and the same object is sent every tick.
        self._ra_frame: Optional[Ethernet] = None
        internet.attach_router(self)

        self.nic.join_multicast(multicast_mac(as_ipv6("ff02::1:2")))
        self.nic.join_multicast(multicast_mac(as_ipv6("ff02::2")))
        self.nic.join_multicast(multicast_mac(solicited_node_multicast(self.v6_lla)))
        self.nic.join_multicast(multicast_mac(solicited_node_multicast(self.v6_gua)))

    # --------------------------------------------------------------- lifecycle

    def _build_firewall(self, mode: str) -> FirewallV6:
        return FirewallV6(mode, lambda: self.sim.now, lookup_mac=self.neighbors.lookup)

    def configure(self, config: NetworkConfig) -> None:
        """Apply one of the Table 2 configurations and restart services."""
        self.config = config
        self.neighbors.flush()
        self.arp.flush()
        self.firewall = self._build_firewall(config.firewall)
        self._nat_out.clear()
        self._nat_in.clear()
        self._v6_leases.clear()
        self._ra_frame = None
        if self._ra_event is not None:
            self._ra_event.cancel()
            self._ra_event = None
        if config.ipv6:
            self._ra_event = self.sim.schedule(1.0, self._ra_tick)

    def _ra_tick(self) -> None:
        self.send_ra()
        self._ra_event = self.sim.schedule(RA_INTERVAL, self._ra_tick)

    def send_ra(self, solicited_by: Optional[MacAddress] = None) -> None:
        if self.config is None or not self.config.ipv6:
            return
        if self.faults is not None and self.faults.ra_suppressed(self.sim.now):
            return
        if self._ra_frame is None:
            options = [
                SourceLinkLayerOption(self.mac),
                MTUOption(1480),  # the IPv6-over-IPv4 tunnel MTU
                PrefixInfoOption(self.lan_v6_prefix.network_address, 64),
            ]
            if self.config.slaac_rdnss:
                options.append(RDNSSOption([self.internet.dns_v6], lifetime=1200))
            ra = ICMPv6.router_advert(
                managed=self.config.stateful_dhcpv6,
                other_config=self.config.stateless_dhcpv6 or self.config.stateful_dhcpv6,
                options=options,
            )
            packet = IPv6(self.v6_lla, ALL_NODES, 58, ra, hop_limit=255)
            self._ra_frame = Ethernet(multicast_mac(ALL_NODES), self.mac, ETHERTYPE_IPV6, packet)
        self.nic.send(self._ra_frame)

    # ------------------------------------------------------------- frame intake

    def handle_frame(self, nic: Nic, frame: Ethernet) -> None:
        if self.config is None:
            return
        if frame.ethertype == ETHERTYPE_IPV6 and isinstance(frame.payload, IPv6):
            self._rx_ipv6(frame.src, frame.payload)
        elif frame.ethertype == ETHERTYPE_IPV4 and isinstance(frame.payload, IPv4):
            if self.config.ipv4:
                self._rx_ipv4(frame.src, frame.payload)
        elif frame.ethertype == ETHERTYPE_ARP and isinstance(frame.payload, ARP):
            if self.config.ipv4:
                self._rx_arp(frame.payload)

    # ------------------------------------------------------------------- IPv4

    def _rx_arp(self, message: ARP) -> None:
        if message.sender_ip != ZERO_V4:
            self.arp.learn(message.sender_ip, message.sender_mac)
        if message.op == ARP_REQUEST and message.target_ip == self.v4_address:
            reply = ARP.reply(self.mac, self.v4_address, message.sender_mac, message.sender_ip)
            self.nic.send(Ethernet(message.sender_mac, self.mac, ETHERTYPE_ARP, reply))

    def _rx_ipv4(self, src_mac: MacAddress, packet: IPv4) -> None:
        payload = packet.payload
        if isinstance(payload, UDP) and payload.dport == DHCP4_SERVER_PORT and isinstance(payload.payload, DHCPv4):
            self._handle_dhcpv4(src_mac, payload.payload)
            return
        if self.nats_v4(packet.src, packet.dst):
            self._nat44_outbound(packet)

    def nats_v4(self, src, dst) -> bool:
        """Does a LAN packet from ``src`` to ``dst`` leave through NAT44?
        (The router offers no services on its own v4 address.)"""
        return dst != BROADCAST_V4 and src in self.lan_v4_network and dst not in self.lan_v4_network

    def _handle_dhcpv4(self, src_mac: MacAddress, message: DHCPv4) -> None:
        if message.msg_type == DHCP4_DISCOVER:
            lease = self._v4_lease_for(message.client_mac)
            self._dhcp4_reply(message, DHCP4_OFFER, lease)
        elif message.msg_type == DHCP4_REQUEST:
            lease = self._v4_lease_for(message.client_mac)
            self._dhcp4_reply(message, DHCP4_ACK, lease)
            self.arp.learn(lease, message.client_mac)

    def _v4_lease_for(self, mac: MacAddress) -> ipaddress.IPv4Address:
        lease = self._v4_leases.get(mac)
        if lease is None:
            lease = as_ipv4(int(self.lan_v4_network.network_address) + self._next_v4_host)
            self._next_v4_host += 1
            self._v4_leases[mac] = lease
        return lease

    def _dhcp4_reply(self, request: DHCPv4, msg_type: int, lease: ipaddress.IPv4Address) -> None:
        reply = DHCPv4(
            DHCP4_OP_REPLY,
            request.xid,
            request.client_mac,
            msg_type=msg_type,
            yiaddr=lease,
            server_id=self.v4_address,
            subnet_mask=self.lan_v4_network.netmask,
            router=self.v4_address,
            dns_servers=[self.internet.dns_v4],
            lease_time=86400,
        )
        packet = IPv4(self.v4_address, BROADCAST_V4, 17, UDP(DHCP4_SERVER_PORT, DHCP4_CLIENT_PORT, reply))
        self.nic.send(Ethernet(MacAddress.BROADCAST, self.mac, ETHERTYPE_IPV4, packet))

    # NAT44 -----------------------------------------------------------------

    def _nat_key(self, proto: int, src, sport: int) -> tuple:
        return (proto, src, sport)

    def nat_map(self, proto: int, src, sport: int) -> int:
        """The public port of ``src:sport``'s NAT44 mapping; a new flow takes
        the next free port. The flow-level fast path calls this at the
        instant an elided packet would have reached the router."""
        key = self._nat_key(proto, src, sport)
        public_port = self._nat_out.get(key)
        if public_port is None:
            public_port = self._next_nat_port
            self._next_nat_port += 1
            self._nat_out[key] = public_port
            self._nat_in[(proto, public_port)] = (src, sport)
        return public_port

    def _nat44_outbound(self, packet: IPv4) -> None:
        payload = packet.payload
        if isinstance(payload, UDP):
            proto, sport = 17, payload.sport
        elif isinstance(payload, TCP):
            proto, sport = 6, payload.sport
        else:
            return
        if self.faults is not None:
            dns = isinstance(payload, UDP) and payload.dport == 53
            if self.faults.drops_wan(self.sim.now, family=4, dns=dns):
                return
        public_port = self.nat_map(proto, packet.src, sport)
        # Copy-on-translate: the datagram is shared with the capture
        # records, so NAT must not rewrite it in place.
        translated_payload = payload.with_ports(sport=public_port)
        translated = IPv4(self.wan_v4_address, packet.dst, packet.proto, translated_payload, ttl=packet.ttl - 1)
        self.internet.deliver_v4(translated)

    def from_wan_v4(self, packet: IPv4) -> None:
        """Inbound IPv4 from the Internet: reverse-NAT and deliver on the LAN."""
        if packet.dst != self.wan_v4_address:
            return
        payload = packet.payload
        if self.faults is not None:
            dns = isinstance(payload, UDP) and payload.sport == 53
            if self.faults.drops_wan(self.sim.now, family=4, dns=dns):
                return
        if isinstance(payload, UDP):
            proto, dport = 17, payload.dport
        elif isinstance(payload, TCP):
            proto, dport = 6, payload.dport
        else:
            return
        mapping = self._nat_in.get((proto, dport))
        if mapping is None:
            return
        device_ip, device_port = mapping
        translated_payload = payload.with_ports(dport=device_port)
        translated = IPv4(packet.src, device_ip, packet.proto, translated_payload, ttl=packet.ttl - 1)
        mac = self.lan_mac_v4(device_ip)
        if mac is not None:
            self.nic.send(Ethernet(mac, self.mac, ETHERTYPE_IPV4, translated))

    def lan_mac_v4(self, address) -> Optional[MacAddress]:
        """Where a LAN packet for ``address`` goes: its ARP entry, else the
        owner of its DHCP lease (None: nowhere)."""
        mac = self.arp.lookup(address)
        if mac is None:
            mac = next((m for m, ip in self._v4_leases.items() if ip == address), None)
        return mac

    # ------------------------------------------------------------------- IPv6

    def _owns_v6(self, addr: ipaddress.IPv6Address) -> bool:
        return addr in self._own_v6

    def lan_bound_v6(self, dst: ipaddress.IPv6Address) -> bool:
        """Is ``dst`` a LAN host the router delivers to (from either side)?"""
        return dst in self.lan_v6_prefix and not self._owns_v6(dst)

    def wan_bound_v6(self, dst: ipaddress.IPv6Address) -> bool:
        """Does a LAN packet to ``dst`` leave through the WAN? (The router's
        own addresses are link-local or inside the LAN prefix.)"""
        return classify_address(dst) == AddressScope.GUA and dst not in self.lan_v6_prefix

    def hear_v6(self, src, src_mac: MacAddress) -> bool:
        """Take in a LAN IPv6 packet's source address: learn the neighbour
        behind a unicast source. False when IPv6 is off and the packet dies
        here."""
        if not self.config.ipv6:
            return False
        if src != UNSPECIFIED and classify_address(src) != AddressScope.MULTICAST:
            self.neighbors.learn(src, src_mac)
        return True

    def _rx_ipv6(self, src_mac: MacAddress, packet: IPv6) -> None:
        if not self.hear_v6(packet.src, src_mac):
            return
        payload = packet.payload
        dst = packet.dst
        if isinstance(payload, ICMPv6):
            self._rx_icmpv6(src_mac, packet, payload)
            return
        if isinstance(payload, UDP) and payload.dport == DHCP6_SERVER_PORT and isinstance(payload.payload, DHCPv6):
            self._handle_dhcpv6(src_mac, packet.src, payload.payload)
            return
        # Forwarding decision
        if self.wan_bound_v6(dst):
            self._forward_wan_v6(packet)
        elif self.lan_bound_v6(dst):
            self._deliver_lan_v6(packet)

    def _forward_wan_v6(self, packet: IPv6) -> None:
        payload = packet.payload
        if self.faults is not None:
            dns = isinstance(payload, UDP) and payload.dport == 53
            if self.faults.drops_wan(self.sim.now, family=6, dns=dns):
                return
        forwarded = IPv6(packet.src, packet.dst, packet.next_header, payload, hop_limit=packet.hop_limit - 1)
        self.firewall.note_outbound(forwarded)
        self.internet.deliver_v6(forwarded)

    def _rx_icmpv6(self, src_mac: MacAddress, packet: IPv6, message: ICMPv6) -> None:
        t = message.icmp_type
        if t in (TYPE_ROUTER_SOLICIT, TYPE_NEIGHBOR_SOLICIT, TYPE_NEIGHBOR_ADVERT) and packet.hop_limit != 255:
            # RFC 4861 §6.1: NDP must arrive with hop limit 255, proving the
            # packet crossed no router — forwarded (WAN-injected) RS/NS/NA
            # must not reach the daemons or poison the neighbor table.
            return
        if t == TYPE_ROUTER_SOLICIT:
            self.send_ra(solicited_by=src_mac)
        elif t == TYPE_NEIGHBOR_SOLICIT and message.target is not None and self._owns_v6(message.target):
            na = ICMPv6.neighbor_advert(message.target, self.mac, solicited=True, router_flag=True)
            reply_dst = packet.src if packet.src != UNSPECIFIED else ALL_NODES
            self._send_v6(reply_dst, 58, na, src=message.target, hop_limit=255)
        elif t == TYPE_NEIGHBOR_ADVERT and message.target is not None:
            target_ll = message.option(TargetLinkLayerOption)
            mac = target_ll.mac if target_ll is not None else src_mac
            for queued in self.neighbors.learn(message.target, mac):
                self.nic.send(Ethernet(mac, self.mac, ETHERTYPE_IPV6, queued))
        elif t == TYPE_ECHO_REQUEST and self._owns_v6(packet.dst):
            reply = ICMPv6.echo_reply(message.identifier, message.sequence, message.data)
            self._send_v6(packet.src, 58, reply, src=packet.dst)
        elif t == TYPE_ECHO_REPLY and (self._owns_v6(packet.dst) or packet.dst in self.lan_v6_prefix):
            pass  # neighbor learned above; the scanner reads the table
        elif self.lan_bound_v6(packet.dst):
            self._deliver_lan_v6(packet)
        elif self.wan_bound_v6(packet.dst):
            # Off-link ICMPv6 (echo replies to Internet pingers, Port
            # Unreachables for WAN probes) forwards like any other traffic.
            self._forward_wan_v6(packet)

    def _send_v6(self, dst, next_header: int, transport, *, src=None, hop_limit: int = 64) -> None:
        src = src if src is not None else (self.v6_gua if classify_address(dst) == AddressScope.GUA else self.v6_lla)
        packet = IPv6(src, dst, next_header, transport, hop_limit=hop_limit)
        if classify_address(dst) == AddressScope.MULTICAST:
            self.nic.send(Ethernet(multicast_mac(dst), self.mac, ETHERTYPE_IPV6, packet))
            return
        mac = self.neighbors.lookup(dst)
        if mac is not None:
            self.nic.send(Ethernet(mac, self.mac, ETHERTYPE_IPV6, packet))
        elif self.neighbors.enqueue(dst, packet):
            self._solicit(dst)

    def _deliver_lan_v6(self, packet: IPv6) -> None:
        forwarded = IPv6(packet.src, packet.dst, packet.next_header, packet.payload, hop_limit=packet.hop_limit - 1)
        mac = self.neighbors.lookup(packet.dst)
        if mac is not None:
            self.nic.send(Ethernet(mac, self.mac, ETHERTYPE_IPV6, forwarded))
        elif self.neighbors.enqueue(packet.dst, forwarded):
            self._solicit(packet.dst)

    def _solicit(self, dst: ipaddress.IPv6Address) -> None:
        group = solicited_node_multicast(dst)
        ns = ICMPv6.neighbor_solicit(dst, self.mac)
        packet = IPv6(self.v6_lla, group, 58, ns, hop_limit=255)
        self.nic.send(Ethernet(multicast_mac(group), self.mac, ETHERTYPE_IPV6, packet))

    def from_wan_v6(self, packet: IPv6) -> None:
        """Inbound IPv6 from the tunnel: route into the LAN.

        The configured WAN firewall policy decides whether the packet is
        forwarded: ``open`` passes everything, ``stateful`` only established
        flows, ``pinhole`` additionally whatever holes devices registered.
        """
        if self.lan_bound_v6(packet.dst):
            if self.faults is not None:
                dns = isinstance(packet.payload, UDP) and packet.payload.sport == 53
                if self.faults.drops_wan(self.sim.now, family=6, dns=dns):
                    return
            if not self.firewall.permits_inbound(packet):
                return
            self._deliver_lan_v6(packet)

    def add_pinhole(self, mac: MacAddress, proto: int, port: int) -> None:
        """Register a UPnP/PCP-style inbound allowance for one device."""
        self.firewall.add_pinhole(mac, proto, port)

    # ----------------------------------------------------------------- DHCPv6

    def _handle_dhcpv6(self, src_mac: MacAddress, src: ipaddress.IPv6Address, message: DHCPv6) -> None:
        if self.faults is not None and self.faults.dhcpv6_down(self.sim.now):
            return
        stateless_on = self.config.stateless_dhcpv6
        stateful_on = self.config.stateful_dhcpv6
        if message.msg_type == MSG_INFORMATION_REQUEST and stateless_on:
            reply = DHCPv6(
                MSG_REPLY,
                message.transaction_id,
                client_duid=message.client_duid,
                server_duid=self._server_duid,
                dns_servers=[self.internet.dns_v6],
            )
            self._dhcp6_reply(src_mac, src, reply)
        elif message.msg_type == MSG_SOLICIT and stateful_on:
            lease = self._v6_lease_for(message.client_duid)
            advertise = DHCPv6(
                MSG_ADVERTISE,
                message.transaction_id,
                client_duid=message.client_duid,
                server_duid=self._server_duid,
                iaid=message.iaid,
                ia_addresses=[IAAddress(lease)],
                dns_servers=[self.internet.dns_v6],
            )
            self._dhcp6_reply(src_mac, src, advertise)
        elif message.msg_type == MSG_REQUEST and stateful_on:
            lease = self._v6_lease_for(message.client_duid)
            reply = DHCPv6(
                MSG_REPLY,
                message.transaction_id,
                client_duid=message.client_duid,
                server_duid=self._server_duid,
                iaid=message.iaid,
                ia_addresses=[IAAddress(lease)],
                dns_servers=[self.internet.dns_v6],
            )
            self._dhcp6_reply(src_mac, src, reply)

    def _v6_lease_for(self, duid: Optional[bytes]) -> ipaddress.IPv6Address:
        key = duid or b""
        lease = self._v6_leases.get(key)
        if lease is None:
            lease = as_ipv6(int(self.lan_v6_prefix.network_address) + self._next_v6_host)
            self._next_v6_host += 1
            self._v6_leases[key] = lease
        return lease

    def _dhcp6_reply(self, dst_mac: MacAddress, dst: ipaddress.IPv6Address, message: DHCPv6) -> None:
        packet = IPv6(self.v6_lla, dst, 17, UDP(DHCP6_SERVER_PORT, DHCP6_CLIENT_PORT, message), hop_limit=1)
        self.nic.send(Ethernet(dst_mac, self.mac, ETHERTYPE_IPV6, packet))

    # ------------------------------------------------------------ scanner APIs

    def neighbor_table(self) -> dict:
        """The router's ``ip -6 neigh`` equivalent: IPv6 address -> MAC."""
        return self.neighbors.entries()

    def v4_lease_table(self) -> dict:
        """DHCPv4 leases: MAC -> IPv4 address."""
        return dict(self._v4_leases)

    def ping_all_nodes(self, identifier: int = 0x5CA0) -> None:
        """ICMPv6 Echo Request to ff02::1 — repopulates the neighbor table."""
        echo = ICMPv6.echo_request(identifier, 1, b"moniotr-scan")
        packet = IPv6(self.v6_lla, ALL_NODES, 58, echo, hop_limit=1)
        self.nic.send(Ethernet(multicast_mac(ALL_NODES), self.mac, ETHERTYPE_IPV6, packet))
