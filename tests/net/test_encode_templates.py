"""Property tests: every layer's ``encode()`` bytes equal a reference encode.

The reference encoders below build each header field by field and compute
every checksum over the concatenated pseudo-header + segment, independently
of ``repro.net``'s encoders, so a checksum bug or a header field written at
the wrong offset fails here rather than in a golden diff. Encoders also
write nothing onto the frame they encode (DESIGN.md §8, §10).
"""

import ipaddress

from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum, ipv4_pseudo_header, ipv6_pseudo_header, transport_checksum
from repro.net.dns import DNS, RCODE_NXDOMAIN, TYPE_A, TYPE_AAAA, ResourceRecord, _normalize, encode_name
from repro.net.ethernet import Ethernet
from repro.net.icmpv6 import ICMPv6
from repro.net.ip6 import multicast_mac, solicited_node_multicast
from repro.net.ipv4 import IPv4
from repro.net.ipv6 import IPv6
from repro.net.mac import MacAddress
from repro.net.packet import Raw
from repro.net.tcp import FLAG_ACK, FLAG_PSH, TCP
from repro.net.udp import UDP

macs = st.binary(min_size=6, max_size=6).map(MacAddress)
v6_addrs = st.binary(min_size=16, max_size=16).map(ipaddress.IPv6Address)
v4_addrs = st.binary(min_size=4, max_size=4).map(ipaddress.IPv4Address)
ports = st.integers(min_value=0, max_value=0xFFFF)
bodies = st.binary(max_size=256)


# -- reference encoders --------------------------------------------------------


def ref_ethernet(frame: Ethernet) -> bytes:
    body = frame.payload.encode() if frame.payload is not None else b""
    return frame.dst.packed + frame.src.packed + frame.ethertype.to_bytes(2, "big") + body


def ref_ipv6(packet: IPv6, body: bytes) -> bytes:
    first_word = (6 << 28) | (packet.traffic_class << 20) | packet.flow_label
    return (
        first_word.to_bytes(4, "big")
        + len(body).to_bytes(2, "big")
        + bytes([packet.next_header, packet.hop_limit])
        + packet.src.packed
        + packet.dst.packed
        + body
    )


def ref_ipv4(packet: IPv4, body: bytes) -> bytes:
    total_length = 20 + len(body)
    header = bytearray(20)
    header[0] = (4 << 4) | 5
    header[2:4] = total_length.to_bytes(2, "big")
    header[4:6] = packet.identification.to_bytes(2, "big")
    header[8] = packet.ttl
    header[9] = packet.proto
    header[12:16] = packet.src.packed
    header[16:20] = packet.dst.packed
    header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
    return bytes(header) + body


def ref_udp_transport(datagram: UDP, src, dst, body: bytes) -> bytes:
    length = 8 + len(body)
    header = (
        datagram.sport.to_bytes(2, "big")
        + datagram.dport.to_bytes(2, "big")
        + length.to_bytes(2, "big")
        + b"\x00\x00"
    )
    if isinstance(src, ipaddress.IPv6Address):
        pseudo = ipv6_pseudo_header(src, dst, 17, length)
    else:
        pseudo = ipv4_pseudo_header(src, dst, 17, length)
    checksum = transport_checksum(pseudo, header + body)
    return header[:6] + checksum.to_bytes(2, "big") + body


def ref_tcp_transport(segment: TCP, src, dst, body: bytes) -> bytes:
    length = 20 + len(body)
    header = (
        segment.sport.to_bytes(2, "big")
        + segment.dport.to_bytes(2, "big")
        + (segment.seq & 0xFFFFFFFF).to_bytes(4, "big")
        + (segment.ack & 0xFFFFFFFF).to_bytes(4, "big")
        + bytes([(5 << 4), segment.flags & 0x3F])
        + segment.window.to_bytes(2, "big")
        + b"\x00\x00"  # checksum placeholder
        + b"\x00\x00"  # urgent pointer
    )
    if isinstance(src, ipaddress.IPv6Address):
        pseudo = ipv6_pseudo_header(src, dst, 6, length)
    else:
        pseudo = ipv4_pseudo_header(src, dst, 6, length)
    checksum = transport_checksum(pseudo, header + body)
    return header[:16] + checksum.to_bytes(2, "big") + header[18:] + body


def ref_icmpv6_transport(message: ICMPv6, src, dst) -> bytes:
    body = message._message_body()
    wire = bytes([message.icmp_type, message.code]) + b"\x00\x00" + body
    pseudo = ipv6_pseudo_header(src, dst, 58, len(wire))
    checksum = transport_checksum(pseudo, wire)
    return wire[:2] + checksum.to_bytes(2, "big") + body


def ref_encode_name(name: str, compression=None, offset: int = 0) -> bytes:
    name = _normalize(name)
    if not name:
        return b"\x00"
    out = bytearray()
    labels = name.split(".")
    for i in range(len(labels)):
        suffix = ".".join(labels[i:])
        if compression is not None and suffix in compression:
            pointer = compression[suffix]
            out += bytes([0xC0 | (pointer >> 8), pointer & 0xFF])
            return bytes(out)
        if compression is not None and offset + len(out) < 0x3FFF:
            compression[suffix] = offset + len(out)
        label = labels[i].encode("ascii")
        out += bytes([len(label)]) + label
    out += b"\x00"
    return bytes(out)


# -- per-layer equality -------------------------------------------------------


@given(macs, macs, st.integers(min_value=0, max_value=0xFFFF), bodies)
def test_ethernet_template_matches_naive(dst, src, ethertype, body):
    frame = Ethernet(dst, src, ethertype, Raw(body))
    assert frame.encode() == ref_ethernet(frame)


@given(
    v6_addrs,
    v6_addrs,
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=0xFFFFF),
    bodies,
)
def test_ipv6_template_matches_naive(src, dst, next_header, hop_limit, traffic_class, flow_label, body):
    packet = IPv6(
        src, dst, next_header, Raw(body),
        hop_limit=hop_limit, traffic_class=traffic_class, flow_label=flow_label,
    )
    assert packet.encode() == ref_ipv6(packet, body)


@given(
    v4_addrs,
    v4_addrs,
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=0xFFFF),
    bodies,
)
def test_ipv4_template_matches_naive(src, dst, proto, ttl, identification, body):
    packet = IPv4(src, dst, proto, Raw(body), ttl=ttl, identification=identification)
    assert packet.encode() == ref_ipv4(packet, body)


@given(v6_addrs, v6_addrs, ports, ports, bodies)
def test_udp_over_v6_incremental_checksum_matches_naive(src, dst, sport, dport, body):
    datagram = UDP(sport, dport, Raw(body))
    assert datagram.encode_transport(src, dst) == ref_udp_transport(datagram, src, dst, body)


@given(v4_addrs, v4_addrs, ports, ports, bodies)
def test_udp_over_v4_incremental_checksum_matches_naive(src, dst, sport, dport, body):
    datagram = UDP(sport, dport, Raw(body))
    assert datagram.encode_transport(src, dst) == ref_udp_transport(datagram, src, dst, body)


@given(
    v6_addrs,
    v6_addrs,
    ports,
    ports,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=0xFFFF),
    bodies,
)
def test_tcp_over_v6_incremental_checksum_matches_naive(src, dst, sport, dport, seq, ack, flags, window, body):
    segment = TCP(sport, dport, flags, seq=seq, ack=ack, window=window, payload=Raw(body))
    assert segment.encode_transport(src, dst) == ref_tcp_transport(segment, src, dst, body)


@given(v4_addrs, v4_addrs, ports, ports, st.integers(min_value=0, max_value=255), bodies)
def test_tcp_over_v4_incremental_checksum_matches_naive(src, dst, sport, dport, flags, body):
    segment = TCP(sport, dport, flags, seq=7, ack=11, payload=Raw(body))
    assert segment.encode_transport(src, dst) == ref_tcp_transport(segment, src, dst, body)


@given(
    v6_addrs,
    v6_addrs,
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
    bodies,
)
def test_icmpv6_echo_incremental_checksum_matches_naive(src, dst, identifier, sequence, data):
    message = ICMPv6.echo_request(identifier, sequence, data)
    assert message.encode_transport(src, dst) == ref_icmpv6_transport(message, src, dst)


@given(
    v6_addrs,
    v6_addrs,
    # NS (135) and NA (136) require a target address; covered below.
    st.integers(min_value=0, max_value=255).filter(lambda t: t not in (135, 136)),
    st.integers(min_value=0, max_value=255),
    bodies,
)
def test_icmpv6_generic_incremental_checksum_matches_naive(src, dst, icmp_type, code, data):
    message = ICMPv6(icmp_type, code, data=data)
    assert message.encode_transport(src, dst) == ref_icmpv6_transport(message, src, dst)


@given(v6_addrs, v6_addrs, v6_addrs, macs)
def test_icmpv6_ndp_incremental_checksum_matches_naive(src, dst, target, mac):
    for message in (
        ICMPv6.neighbor_solicit(target, mac),
        ICMPv6.neighbor_advert(target, mac),
        ICMPv6.router_solicit(mac),
        ICMPv6.router_advert(),
    ):
        assert message.encode_transport(src, dst) == ref_icmpv6_transport(message, src, dst)


# -- full chain + DNS names -------------------------------------------------


@given(macs, macs, v6_addrs, v6_addrs, ports, ports, bodies)
def test_full_frame_chain_matches_naive_composition(dst, src, v6src, v6dst, sport, dport, body):
    datagram = UDP(sport, dport, Raw(body))
    packet = IPv6(v6src, v6dst, 17, datagram)
    frame = Ethernet(dst, src, 0x86DD, packet)
    transport = ref_udp_transport(datagram, packet.src, packet.dst, body)
    expected = (
        frame.dst.packed + frame.src.packed + b"\x86\xdd" + ref_ipv6(packet, transport)
    )
    assert frame.encode() == expected
    assert frame.wire_length() == len(expected)


_labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=10)
_names = st.lists(_labels, min_size=1, max_size=4).map(".".join)


@given(st.lists(_names, min_size=1, max_size=6))
def test_encode_name_cached_path_matches_naive(names):
    """A message's worth of names, encoded with a shared compression dict,
    must produce the same bytes (and the same dict) as the reference loop."""
    fast_dict: dict = {}
    slow_dict: dict = {}
    fast_out = bytearray()
    slow_out = bytearray()
    for name in names:
        fast_out += encode_name(name, fast_dict, len(fast_out))
        slow_out += ref_encode_name(name, slow_dict, len(slow_out))
    assert bytes(fast_out) == bytes(slow_out)
    assert fast_dict == slow_dict


@given(_names)
def test_encode_name_without_compression_matches_naive(name):
    assert encode_name(name) == ref_encode_name(name)


# -- encoding leaves the frame as it was ----------------------------------------


def _sender_frames() -> list[Ethernet]:
    """Frames as a sender builds them: no layer has been encoded or decoded."""
    host = MacAddress("02:00:00:00:00:02")
    router = MacAddress("02:00:00:00:00:01")
    group = solicited_node_multicast("fe80::1")
    lookup = UDP(40000, 53, DNS.query(7, "cdn.example.com", TYPE_AAAA))
    hello = TCP(40001, 443, FLAG_ACK | FLAG_PSH, seq=1, ack=2, payload=Raw(b"\x16\x03\x01hello"))
    solicit = ICMPv6.neighbor_solicit("fe80::1", host)
    return [
        Ethernet(router, host, 0x86DD, IPv6("2001:db8::2", "2001:db8::53", 17, lookup)),
        Ethernet(router, host, 0x0800, IPv4("192.168.1.2", "93.184.216.34", 6, hello)),
        Ethernet(multicast_mac(group), host, 0x86DD, IPv6("fe80::2", group, 58, solicit, hop_limit=255)),
    ]


def test_encoding_writes_nothing_on_the_frame():
    for frame in _sender_frames():
        layers = frame.layers()
        before = [layer.wire_len for layer in layers]
        assert before == [len(layer) if isinstance(layer, Raw) else None for layer in layers]
        wire = frame.encode()
        assert frame.encode() == wire
        assert [layer.wire_len for layer in frame.layers()] == before
        assert frame.wire_length() == len(wire)


# -- DNS.with_txid ---------------------------------------------------------------


def _response_templates() -> list[DNS]:
    """Resolver answers whose names compress against the question name."""
    answers = [
        ResourceRecord.a("cdn.example.com", "93.184.216.34"),
        ResourceRecord.a("cdn.example.com", "93.184.216.35"),
    ]
    soa = ResourceRecord.soa("example.net", "ns1.gtld.example", "hostmaster.gtld.example")
    return [
        DNS.query(0x1111, "cdn.example.com", TYPE_A).response(answers),
        DNS.query(0x2222, "missing.example.net", TYPE_AAAA).response(rcode=RCODE_NXDOMAIN, authorities=[soa]),
    ]


def _records(section) -> list[tuple]:
    return [(rr.name, rr.rtype, rr.rclass, rr.ttl, rr.rdata) for rr in section]


def test_with_txid_changes_only_the_transaction_id():
    a_response, nxdomain = _response_templates()
    # Both answer names point at the question name (offset 12); the SOA
    # owner "example.net" points into it, after the 8 bytes of "\x07missing".
    assert a_response.encode().count(b"\xc0\x0c") == 2
    assert b"\xc0\x14" in nxdomain.encode()
    for template in (a_response, nxdomain):
        wire = template.encode()
        copy = template.with_txid(0xBEEF)
        assert copy.answers is template.answers and copy.authorities is template.authorities
        assert copy.encode() == b"\xbe\xef" + wire[2:]
        assert template.encode() == wire
        decoded = DNS.decode(copy.encode())
        assert decoded.txid == 0xBEEF
        assert (decoded.is_response, decoded.rcode) == (template.is_response, template.rcode)
        assert decoded.questions == template.questions
        for section in ("answers", "authorities", "additionals"):
            assert _records(getattr(decoded, section)) == _records(getattr(template, section))
