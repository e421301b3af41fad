"""Capture parsing: raw frames -> typed, per-device events.

``CaptureIndex`` makes one pass over a capture and produces:

- DNS query/response events (with transport family and query type),
- DHCPv6/DHCPv4 protocol events,
- NDP events (RS/RA/NS/NA, DAD solicitations),
- per-device IPv6 address observations (assigned, used, DAD'd),
- TCP/UDP application flows with byte counts, locality, and TLS SNI,
- NTP events (data without DNS).

Traffic is attributed to devices through the lab's MAC inventory, exactly as
the paper attributed tcpdump output.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.net.dhcpv4 import DHCPv4
from repro.net.dhcpv6 import DHCPv6
from repro.net.dns import DNS, TYPE_A, TYPE_AAAA, TYPE_HTTPS, TYPE_SVCB
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6, Ethernet
from repro.net.icmpv6 import (
    ICMPv6,
    TYPE_NEIGHBOR_ADVERT,
    TYPE_NEIGHBOR_SOLICIT,
    TYPE_ROUTER_ADVERT,
    TYPE_ROUTER_SOLICIT,
)
from repro.net.ip6 import AddressScope, UNSPECIFIED, classify_address
from repro.net.ipv4 import IPv4, as_ipv4
from repro.net.ipv6 import IPv6
from repro.net.mac import MacAddress
from repro.net.packet import DecodeError, Raw, has_tcp_decoder
from repro.net.pcap import PcapRecord
from repro.net.tcp import TCP
from repro.net.tls import TLSClientHello
from repro.net.udp import UDP
from repro.stack.flowpath import DnsRecord

# Ports excluded from "data transmission" (§5.2.3 excludes DNS and DHCPv6;
# we also exclude DHCPv4 and mDNS noise). NTP counts as data.
NON_DATA_UDP_PORTS = {53, 67, 68, 546, 547, 5353}

DEFAULT_LAN_V6 = ipaddress.IPv6Network("2001:db8:100::/64")
DEFAULT_LAN_V4 = ipaddress.IPv4Network("192.168.10.0/24")
BROADCAST_V4 = as_ipv4("255.255.255.255")


def _server_name(payload) -> Optional[str]:
    """The SNI of a first TCP payload that is a TLS ClientHello.

    Sender-built frames and flow records carry the hello as an opaque Raw
    payload (the sender built it from bytes); decoded frames parse it
    lazily. Both are read the same, so live and re-decoded captures index
    identically.
    """
    if isinstance(payload, TLSClientHello):
        return payload.server_name
    if isinstance(payload, Raw) and payload.data[:1] == b"\x16":
        try:
            return TLSClientHello.decode(payload.data).server_name
        except DecodeError:
            pass
    return None


@dataclass(frozen=True, slots=True)
class DnsQuery:
    device: str
    name: str
    qtype: int
    family: int
    timestamp: float
    src_ip: object


@dataclass(frozen=True, slots=True)
class DnsResponse:
    device: str
    name: str
    qtype: int
    family: int
    rcode: int
    answers: tuple
    timestamp: float

    @property
    def answered(self) -> bool:
        return self.rcode == 0 and bool(self.answers)


@dataclass(frozen=True, slots=True)
class NdpEvent:
    device: str
    kind: str            # "rs" | "ra" | "ns" | "na" | "dad"
    target: Optional[object]
    src_ip: object
    timestamp: float


@dataclass(slots=True)
class AddressRecordObs:
    """One IPv6 address observed for a device."""

    address: ipaddress.IPv6Address
    scope: AddressScope
    dad_seen: bool = False
    used_for_data: bool = False
    used_for_dns: bool = False
    used_at_all: bool = False
    first_seen: float = 0.0


@dataclass(slots=True)
class Flow:
    """One TCP or UDP conversation attributed to a device."""

    device: str
    proto: str           # "tcp" | "udp"
    family: int
    local_ip: object
    remote_ip: object
    local_port: int
    remote_port: int
    bytes_out: int = 0
    bytes_in: int = 0
    sni: Optional[str] = None
    is_local: bool = False
    first_seen: float = 0.0

    @property
    def is_data(self) -> bool:
        if self.proto == "udp" and (self.remote_port in NON_DATA_UDP_PORTS or self.local_port in NON_DATA_UDP_PORTS):
            return False
        if self.remote_port in (53,) or self.local_port in (53,):
            return False
        return self.bytes_out + self.bytes_in > 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_out + self.bytes_in


@dataclass(slots=True)
class DhcpEvent:
    device: str
    protocol: str        # "dhcpv6" | "dhcpv4"
    msg_type: int
    stateful: bool
    timestamp: float


class CaptureIndex:
    """A one-pass index over a capture."""

    def __init__(
        self,
        records: Iterable[PcapRecord],
        mac_table: dict[MacAddress, str],
        *,
        flow_records: Iterable = (),
        lan_v6=DEFAULT_LAN_V6,
        lan_v4=DEFAULT_LAN_V4,
    ):
        self.mac_table = {MacAddress(mac): name for mac, name in mac_table.items()}
        self.lan_v6 = lan_v6
        self.lan_v4 = lan_v4

        self.dns_queries: list[DnsQuery] = []
        self.dns_responses: list[DnsResponse] = []
        self.ndp_events: list[NdpEvent] = []
        self.dhcp_events: list[DhcpEvent] = []
        self.addresses: dict[str, dict[ipaddress.IPv6Address, AddressRecordObs]] = {}
        self.ntp_v6_devices: set[str] = set()
        self._flows: dict[tuple, Flow] = {}
        self.frame_count = 0
        self.decode_errors = 0

        if flow_records:
            self._ingest_merged(records, flow_records)
        else:
            for record in records:
                self._ingest(record)

        self.tcp_flows = [f for f in self._flows.values() if f.proto == "tcp"]
        self.udp_flows = [f for f in self._flows.values() if f.proto == "udp"]
        self.flows = list(self._flows.values())

    # ------------------------------------------------------------------ parse

    def _device_for(self, mac: MacAddress) -> Optional[str]:
        return self.mac_table.get(mac)

    def _ingest(self, record: PcapRecord) -> None:
        self.frame_count += 1
        # Live captures carry the sender's frame; only records read back
        # from pcap files (or synthesized in tests) still need a parse here.
        frame = record.frame
        if frame is None:
            try:
                frame = Ethernet.decode(record.data)
            except DecodeError:
                self.decode_errors += 1
                return
        if frame.ethertype == ETHERTYPE_IPV6 and isinstance(frame.payload, IPv6):
            self._ingest_v6(record.timestamp, frame)
        elif frame.ethertype == ETHERTYPE_IPV4 and isinstance(frame.payload, IPv4):
            self._ingest_v4(record.timestamp, frame)

    # -- flow-fidelity records ---------------------------------------------------

    def _ingest_merged(self, records: Iterable[PcapRecord], flow_records: Iterable) -> None:
        """Interleave packet records and flow-path records by timestamp.

        Flow records land in the same DNS events, :class:`Flow` objects and
        address observations the packet path would have produced, so
        analyses are fidelity-invariant. Each record carries the capture time
        of the frame it stands for; packets sort first on timestamp ties.
        """
        flows = list(flow_records)
        i = 0
        for record in records:
            while i < len(flows) and flows[i].timestamp < record.timestamp:
                self._ingest_flow_record(flows[i])
                i += 1
            self._ingest(record)
        for rec in flows[i:]:
            self._ingest_flow_record(rec)

    def _ingest_flow_record(self, rec) -> None:
        """Index one record of the flow fast path through the helpers the
        frames it stands for go through: the request's, then the answer's."""
        ts = rec.timestamp
        sender = self._device_for(rec.src_mac)
        if sender is None:
            return
        dns = type(rec) is DnsRecord
        if dns and rec.message.is_response:
            self._dns_response(ts, sender, rec.family, rec.message)
            return
        if rec.family == 6:
            self._note_source(ts, sender, rec.src_ip)
        if dns:
            self._dns_query(ts, sender, rec.family, rec.src_ip, rec.message)
        elif rec.proto == "tcp" or self._udp_data(sender, rec.family, rec.sport, rec.dport):
            self._sent(
                ts, sender, rec.proto, rec.family, rec.src_ip, rec.dst_ip, rec.sport, rec.dport, rec.bytes_out, rec
            )
            self._received(
                ts, sender, rec.proto, rec.family, rec.dst_ip, rec.src_ip, rec.dport, rec.sport, rec.bytes_in
            )

    # -- IPv6 -------------------------------------------------------------------

    def _address_obs(self, device: str, address: ipaddress.IPv6Address, ts: float) -> AddressRecordObs:
        table = self.addresses.setdefault(device, {})
        obs = table.get(address)
        if obs is None:
            obs = AddressRecordObs(address, classify_address(address), first_seen=ts)
            table[address] = obs
        return obs

    def _note_source(self, ts: float, device: str, src) -> None:
        """A non-ICMP packet from ``device`` used its unicast source ``src``."""
        if src != UNSPECIFIED and classify_address(src) not in (AddressScope.MULTICAST, AddressScope.UNSPECIFIED):
            self._address_obs(device, src, ts).used_at_all = True

    def _ingest_v6(self, ts: float, frame: Ethernet) -> None:
        packet: IPv6 = frame.payload
        sender = self._device_for(frame.src)
        receiver = self._device_for(frame.dst)
        payload = packet.payload

        if isinstance(payload, ICMPv6):
            self._ingest_icmpv6(ts, sender, packet, payload)
            return

        if sender is not None:
            self._note_source(ts, sender, packet.src)

        if isinstance(payload, UDP):
            self._ingest_udp(ts, sender, receiver, packet.src, packet.dst, payload, family=6)
        elif isinstance(payload, TCP):
            self._ingest_tcp(ts, sender, receiver, packet.src, packet.dst, payload, family=6)

    def _ingest_icmpv6(self, ts: float, sender: Optional[str], packet: IPv6, message: ICMPv6) -> None:
        t = message.icmp_type
        if sender is None:
            return
        if t == TYPE_ROUTER_SOLICIT:
            self.ndp_events.append(NdpEvent(sender, "rs", None, packet.src, ts))
        elif t == TYPE_ROUTER_ADVERT:
            self.ndp_events.append(NdpEvent(sender, "ra", None, packet.src, ts))
        elif t == TYPE_NEIGHBOR_SOLICIT:
            kind = "dad" if packet.src == UNSPECIFIED else "ns"
            self.ndp_events.append(NdpEvent(sender, kind, message.target, packet.src, ts))
            if kind == "dad" and message.target is not None:
                obs = self._address_obs(sender, message.target, ts)
                obs.dad_seen = True
        elif t == TYPE_NEIGHBOR_ADVERT:
            self.ndp_events.append(NdpEvent(sender, "na", message.target, packet.src, ts))
            if message.target is not None:
                self._address_obs(sender, message.target, ts)
        if packet.src != UNSPECIFIED and classify_address(packet.src) not in (
            AddressScope.MULTICAST,
            AddressScope.UNSPECIFIED,
        ):
            self._address_obs(sender, packet.src, ts)

    # -- IPv4 -------------------------------------------------------------------

    def _ingest_v4(self, ts: float, frame: Ethernet) -> None:
        packet: IPv4 = frame.payload
        sender = self._device_for(frame.src)
        receiver = self._device_for(frame.dst)
        payload = packet.payload
        if isinstance(payload, UDP):
            self._ingest_udp(ts, sender, receiver, packet.src, packet.dst, payload, family=4)
        elif isinstance(payload, TCP):
            self._ingest_tcp(ts, sender, receiver, packet.src, packet.dst, payload, family=4)

    # -- transports ---------------------------------------------------------------

    def _is_local_dst(self, dst, family: int) -> bool:
        if family == 6:
            scope = classify_address(dst)
            if scope in (AddressScope.LLA, AddressScope.ULA, AddressScope.MULTICAST):
                return True
            return dst in self.lan_v6
        return dst in self.lan_v4 or dst == BROADCAST_V4 or dst.is_multicast

    def _ingest_udp(self, ts, sender, receiver, src_ip, dst_ip, datagram: UDP, family: int) -> None:
        # Port checks come first so that datagrams the index only counts
        # (app data, NTP) never pay the lazy application-payload parse;
        # ``datagram.payload`` is touched only on the DNS/DHCP ports that
        # actually need the parsed message.
        dport, sport = datagram.dport, datagram.sport
        # DNS
        if dport == 53 and sender is not None:
            inner = datagram.payload
            if isinstance(inner, DNS) and not inner.is_response:
                self._dns_query(ts, sender, family, src_ip, inner)
                return
        if sport == 53 and receiver is not None:
            inner = datagram.payload
            if isinstance(inner, DNS) and inner.is_response:
                self._dns_response(ts, receiver, family, inner)
                return
        # DHCP
        if dport == 547 and sender is not None:
            inner = datagram.payload
            if isinstance(inner, DHCPv6):
                self.dhcp_events.append(DhcpEvent(sender, "dhcpv6", inner.msg_type, inner.has_ia_na, ts))
                return
        if dport == 67 and sender is not None:
            inner = datagram.payload
            if isinstance(inner, DHCPv4):
                self.dhcp_events.append(DhcpEvent(sender, "dhcpv4", inner.msg_type, False, ts))
                return
        if self._udp_data(sender, family, sport, dport):
            self._record_flow(ts, sender, receiver, src_ip, dst_ip, sport, dport, "udp", family, datagram)

    def _udp_data(self, sender: Optional[str], family: int, sport: int, dport: int) -> bool:
        """Does a datagram between these ports count toward flows?"""
        if dport in NON_DATA_UDP_PORTS or sport in NON_DATA_UDP_PORTS:
            return False
        # NTP over IPv6 is the canonical "data without DNS" signal
        if family == 6 and dport == 123 and sender is not None:
            self.ntp_v6_devices.add(sender)
        return True

    def _dns_query(self, ts, device: str, family: int, src_ip, message: DNS) -> None:
        question = message.question
        if question is not None:
            self.dns_queries.append(DnsQuery(device, question.name, question.qtype, family, ts, src_ip))
            if family == 6:
                obs = self._address_obs(device, src_ip, ts)
                obs.used_for_dns = True

    def _dns_response(self, ts, device: str, family: int, message: DNS) -> None:
        question = message.question
        if question is not None:
            answers = tuple(
                rr.rdata for rr in message.answers if rr.rtype in (TYPE_A, TYPE_AAAA, TYPE_HTTPS, TYPE_SVCB)
            )
            self.dns_responses.append(
                DnsResponse(device, question.name, question.qtype, family, message.rcode, answers, ts)
            )

    def _ingest_tcp(self, ts, sender, receiver, src_ip, dst_ip, segment: TCP, family: int) -> None:
        self._record_flow(ts, sender, receiver, src_ip, dst_ip, segment.sport, segment.dport, "tcp", family, segment)

    def _record_flow(self, ts, sender, receiver, src_ip, dst_ip, sport, dport, proto, family, transport) -> None:
        # The wire length captured at decode time — no per-packet re-encode.
        payload_len = transport.payload_wire_len
        if sender is not None:
            self._sent(ts, sender, proto, family, src_ip, dst_ip, sport, dport, payload_len, transport)
        elif receiver is not None:
            self._received(ts, receiver, proto, family, src_ip, dst_ip, sport, dport, payload_len)

    def _sent(self, ts, device, proto, family, src_ip, dst_ip, sport, dport, payload_len, transport) -> None:
        """Credit ``payload_len`` bytes ``device`` sent from ``src_ip`` to its
        flow, made at its first packet; an outbound packet also matches a
        flow keyed from the other end. ``transport.payload``, parsed lazily
        on decoded frames, is read only while the flow lacks an SNI."""
        key = (device, proto, family, src_ip, dst_ip, sport, dport)
        flow = self._flows.get(key) or self._flows.get((device, proto, family, dst_ip, src_ip, dport, sport))
        if flow is None:
            flow = Flow(
                device, proto, family, src_ip, dst_ip, sport, dport,
                is_local=self._is_local_dst(dst_ip, family), first_seen=ts,
            )
            self._flows[key] = flow
        flow.bytes_out += payload_len
        if not payload_len:
            return
        if proto == "tcp" and flow.sni is None and has_tcp_decoder(sport, dport):
            flow.sni = _server_name(transport.payload)
        if family == 6 and not flow.is_local:
            self._address_obs(device, src_ip, ts).used_for_data = True

    def _received(self, ts, device, proto, family, src_ip, dst_ip, sport, dport, payload_len) -> None:
        """Credit ``payload_len`` bytes ``device`` received at ``dst_ip``."""
        key = (device, proto, family, dst_ip, src_ip, dport, sport)
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow(
                device, proto, family, dst_ip, src_ip, dport, sport,
                is_local=self._is_local_dst(src_ip, family), first_seen=ts,
            )
            self._flows[key] = flow
        flow.bytes_in += payload_len

    # --------------------------------------------------------------- summaries

    def devices_with_ndp(self) -> set[str]:
        return {event.device for event in self.ndp_events}

    def internet_data_devices(self, family: int) -> set[str]:
        return {f.device for f in self.flows if f.is_data and not f.is_local and f.family == family}

    def local_data_devices(self, family: int = 6) -> set[str]:
        return {f.device for f in self.flows if f.is_data and f.is_local and f.family == family}
