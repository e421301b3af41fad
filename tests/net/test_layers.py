"""Round-trip tests for Ethernet/ARP/IPv4/IPv6/UDP/TCP/ICMPv6 codecs."""

import ipaddress

import pytest

from repro.net import ARP, DNS, Ethernet, ICMPv6, IPv4, IPv6, MacAddress, Raw, TCP, UDP
from repro.net.checksum import internet_checksum
from repro.net.icmpv6 import (
    MTUOption,
    PrefixInfoOption,
    RDNSSOption,
    SourceLinkLayerOption,
    TargetLinkLayerOption,
)
from repro.net.packet import DecodeError
from repro.net.tcp import FLAG_ACK, FLAG_SYN

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


def ether_round_trip(frame: Ethernet) -> Ethernet:
    return Ethernet.decode(frame.encode())


class TestChecksum:
    def test_rfc1071_example(self):
        # From RFC 1071: the checksum of 00 01 f2 03 f4 f5 f6 f7
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_zero_data(self):
        assert internet_checksum(b"") == 0xFFFF


class TestEthernet:
    def test_round_trip_raw(self):
        frame = Ethernet(MAC_B, MAC_A, 0x1234, Raw(b"hello"))
        decoded = ether_round_trip(frame)
        assert decoded.src == MAC_A
        assert decoded.dst == MAC_B
        assert decoded.ethertype == 0x1234
        assert decoded.payload == Raw(b"hello")

    def test_too_short(self):
        with pytest.raises(DecodeError):
            Ethernet.decode(b"\x00" * 10)


class TestARP:
    def test_request_round_trip(self):
        frame = Ethernet(MacAddress.BROADCAST, MAC_A, 0x0806, ARP.request(MAC_A, "10.0.0.2", "10.0.0.1"))
        arp = ether_round_trip(frame).payload
        assert isinstance(arp, ARP)
        assert arp.op == 1
        assert arp.sender_ip == ipaddress.IPv4Address("10.0.0.2")
        assert arp.target_ip == ipaddress.IPv4Address("10.0.0.1")

    def test_reply_round_trip(self):
        reply = ARP.reply(MAC_B, "10.0.0.1", MAC_A, "10.0.0.2")
        decoded = ARP.decode(reply.encode())
        assert decoded.op == 2
        assert decoded.sender_mac == MAC_B
        assert decoded.target_mac == MAC_A


class TestIPv4:
    def test_udp_round_trip_with_checksum(self):
        pkt = IPv4("10.0.0.2", "8.8.8.8", 17, UDP(12345, 53, Raw(b"")))
        frame = Ethernet(MAC_B, MAC_A, 0x0800, pkt)
        decoded = ether_round_trip(frame).payload
        assert isinstance(decoded, IPv4)
        assert decoded.src == ipaddress.IPv4Address("10.0.0.2")
        udp = decoded.payload
        assert isinstance(udp, UDP)
        assert udp.sport == 12345
        assert udp.checksum_ok is True

    def test_header_checksum_detects_corruption(self):
        data = bytearray(IPv4("1.2.3.4", "5.6.7.8", 17, UDP(1, 2)).encode())
        header = bytes(data[:20])
        assert internet_checksum(header) == 0
        data[12] ^= 0xFF
        assert internet_checksum(bytes(data[:20])) != 0


class TestIPv6Layer:
    def test_udp_round_trip(self):
        pkt = IPv6("2001:db8::2", "2001:4860:4860::8888", 17, UDP(40000, 53, Raw(b"x")))
        decoded = IPv6.decode(pkt.encode())
        assert decoded.src == ipaddress.IPv6Address("2001:db8::2")
        assert decoded.hop_limit == 64
        assert isinstance(decoded.payload, UDP)
        assert decoded.payload.checksum_ok is True

    def test_corrupted_udp_checksum_flagged(self):
        raw = bytearray(IPv6("2001:db8::2", "2001:db8::1", 17, UDP(1000, 2000, Raw(b"data"))).encode())
        raw[-1] ^= 0x55
        decoded = IPv6.decode(bytes(raw))
        assert decoded.payload.checksum_ok is False

    def test_traffic_class_and_flow_label(self):
        pkt = IPv6("::1", "::2", 59, traffic_class=0xAB, flow_label=0x12345)
        decoded = IPv6.decode(pkt.encode())
        assert decoded.traffic_class == 0xAB
        assert decoded.flow_label == 0x12345

    def test_truncated_rejected(self):
        with pytest.raises(DecodeError):
            IPv6.decode(b"\x60" + b"\x00" * 20)


class TestTCP:
    def test_syn_round_trip(self):
        seg = TCP(5555, 443, FLAG_SYN, seq=1000)
        pkt = IPv6("2001:db8::2", "2001:db8::99", 6, seg)
        decoded = IPv6.decode(pkt.encode()).payload
        assert isinstance(decoded, TCP)
        assert decoded.syn and not decoded.ack_flag
        assert decoded.seq == 1000
        assert decoded.checksum_ok is True

    def test_synack_flags(self):
        seg = TCP(443, 5555, FLAG_SYN | FLAG_ACK, seq=77, ack=1001)
        decoded = TCP.decode(IPv4("1.1.1.1", "2.2.2.2", 6, seg).encode()[20:])
        assert decoded.syn and decoded.ack_flag
        assert decoded.ack == 1001

    def test_over_ipv4_checksum(self):
        pkt = IPv4("192.168.1.5", "93.184.216.34", 6, TCP(40001, 80, FLAG_SYN))
        decoded = IPv4.decode(pkt.encode()).payload
        assert decoded.checksum_ok is True


class TestICMPv6:
    def v6(self, msg, src="fe80::1", dst="ff02::1"):
        return IPv6.decode(IPv6(src, dst, 58, msg).encode()).payload

    def test_echo_round_trip(self):
        echo = self.v6(ICMPv6.echo_request(7, 3, b"ping"))
        assert echo.icmp_type == 128
        assert (echo.identifier, echo.sequence, echo.data) == (7, 3, b"ping")
        assert echo.checksum_ok is True

    def test_rs_with_sllao(self):
        rs = self.v6(ICMPv6.router_solicit(MAC_A))
        assert rs.icmp_type == 133
        opt = rs.option(SourceLinkLayerOption)
        assert opt is not None and opt.mac == MAC_A

    def test_ra_full_options(self):
        ra = ICMPv6.router_advert(
            managed=True,
            other_config=True,
            options=[
                SourceLinkLayerOption(MAC_B),
                MTUOption(1480),
                PrefixInfoOption("2001:db8:1::", valid_lifetime=86400, preferred_lifetime=14400),
                RDNSSOption(["2001:4860:4860::8888"], lifetime=600),
            ],
        )
        decoded = self.v6(ra)
        assert decoded.managed and decoded.other_config
        prefixes = decoded.prefixes()
        assert len(prefixes) == 1
        assert prefixes[0].prefix == ipaddress.IPv6Address("2001:db8:1::")
        assert prefixes[0].network == ipaddress.IPv6Network("2001:db8:1::/64")
        assert prefixes[0].network is prefixes[0].network
        assert prefixes[0].autonomous and prefixes[0].on_link
        rdnss = decoded.option(RDNSSOption)
        assert rdnss.servers == [ipaddress.IPv6Address("2001:4860:4860::8888")]
        assert decoded.option(MTUOption).mtu == 1480

    def test_prefix_info_from_the_wire_never_fails_to_decode(self):
        # A receiver ignores the reserved bits past the prefix length
        # (RFC 4861 §4.6.2) and skips an option whose length cannot be one.
        ra = ICMPv6.router_advert(options=[PrefixInfoOption("2001:db8:1::1")])
        wire = ra.encode()
        assert ICMPv6.decode(wire).prefixes()[0].network == ipaddress.IPv6Network("2001:db8:1::/64")
        prefix_length_at = 4 + 12 + 2  # ICMPv6 header, RA fields, option type and length
        assert wire[prefix_length_at] == 64
        too_long = wire[:prefix_length_at] + bytes([129]) + wire[prefix_length_at + 1 :]
        assert ICMPv6.decode(too_long).prefixes() == []

    def test_ns_dad_style(self):
        # DAD: NS from the unspecified address with no SLLAO
        ns = self.v6(ICMPv6.neighbor_solicit("2001:db8::1:2"), src="::", dst="ff02::1:ff01:2")
        assert ns.icmp_type == 135
        assert ns.target == ipaddress.IPv6Address("2001:db8::1:2")
        assert ns.option(SourceLinkLayerOption) is None

    def test_na_flags(self):
        na = self.v6(ICMPv6.neighbor_advert("fe80::5", MAC_A, router_flag=True))
        assert na.icmp_type == 136
        assert na.solicited and na.override and na.router_flag
        assert na.option(TargetLinkLayerOption).mac == MAC_A

    def test_port_unreachable_embeds_datagram(self):
        original = IPv6("2001:db8::2", "2001:db8::9", 17, UDP(9999, 161)).encode()
        msg = self.v6(ICMPv6.port_unreachable(original), src="2001:db8::9", dst="2001:db8::2")
        assert msg.icmp_type == 1 and msg.code == 4
        assert msg.data.startswith(original[:40])

    def test_checksum_corruption_detected(self):
        raw = bytearray(IPv6("fe80::1", "ff02::1", 58, ICMPv6.echo_request(1, 1)).encode())
        raw[-1] ^= 0x01
        assert IPv6.decode(bytes(raw)).payload.checksum_ok is False


class TestStacking:
    def test_truediv_builds_chain(self):
        frame = Ethernet(MAC_B, MAC_A, 0x86DD) / IPv6("::1", "::2", 17) / UDP(1, 2, Raw(b"x"))
        assert isinstance(frame.payload, IPv6)
        assert isinstance(frame.payload.payload, UDP)

    def test_find(self):
        frame = Ethernet(MAC_B, MAC_A, 0x86DD) / IPv6("::1", "::2", 17) / UDP(1, 53, DNS.query(1, "a.example", 28))
        assert frame.find(DNS) is not None
        assert frame.find(TCP) is None
