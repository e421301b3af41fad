"""Unit tests for the capture index on hand-crafted frames."""

import ipaddress

from repro.core.capture import CaptureIndex
from repro.net import DNS, Ethernet, ICMPv6, IPv4, IPv6, MacAddress, Raw, TCP, UDP
from repro.net.dns import ResourceRecord, TYPE_A, TYPE_AAAA
from repro.net.ntp import NTP
from repro.net.pcap import PcapRecord, dump_records, load_records
from repro.net.tcp import FLAG_ACK, FLAG_PSH, FLAG_SYN
from repro.net.tls import TLSClientHello

DEVICE_MAC = MacAddress("02:11:00:00:00:01")
ROUTER_MAC = MacAddress("02:22:00:00:00:01")
MAC_TABLE = {DEVICE_MAC: "thing"}

DEVICE_V6 = ipaddress.IPv6Address("2001:db8:100::5")
DEVICE_LLA = ipaddress.IPv6Address("fe80::aaaa")
CLOUD_V6 = ipaddress.IPv6Address("2600:9000::7")
DEVICE_V4 = ipaddress.IPv4Address("192.168.10.50")
CLOUD_V4 = ipaddress.IPv4Address("34.0.0.9")
DNS_V6 = ipaddress.IPv6Address("2001:4860:4860::8888")


def rec(frame, ts=1.0):
    return PcapRecord(ts, frame.encode())


def v6(src, dst, transport, src_mac=DEVICE_MAC, dst_mac=ROUTER_MAC):
    proto = 58 if isinstance(transport, ICMPv6) else (6 if isinstance(transport, TCP) else 17)
    return Ethernet(dst_mac, src_mac, 0x86DD, IPv6(src, dst, proto, transport))


def v4(src, dst, transport, src_mac=DEVICE_MAC, dst_mac=ROUTER_MAC):
    proto = 6 if isinstance(transport, TCP) else 17
    return Ethernet(dst_mac, src_mac, 0x0800, IPv4(src, dst, proto, transport))


class TestDnsEvents:
    def test_query_attribution_and_family(self):
        query = DNS.query(7, "cloud.vendor.example", TYPE_AAAA)
        index = CaptureIndex([rec(v6(DEVICE_V6, DNS_V6, UDP(4000, 53, query)))], MAC_TABLE)
        assert len(index.dns_queries) == 1
        event = index.dns_queries[0]
        assert (event.device, event.name, event.qtype, event.family) == ("thing", "cloud.vendor.example", TYPE_AAAA, 6)

    def test_response_attributed_to_receiver(self):
        query = DNS.query(7, "cloud.vendor.example", TYPE_AAAA)
        response = query.response([ResourceRecord.aaaa("cloud.vendor.example", CLOUD_V6)])
        frame = v6(DNS_V6, DEVICE_V6, UDP(53, 4000, response), src_mac=ROUTER_MAC, dst_mac=DEVICE_MAC)
        index = CaptureIndex([rec(frame)], MAC_TABLE)
        assert len(index.dns_responses) == 1
        event = index.dns_responses[0]
        assert event.device == "thing" and event.answered
        assert CLOUD_V6 in event.answers

    def test_unknown_mac_ignored(self):
        query = DNS.query(7, "x.example", TYPE_A)
        stranger = MacAddress("02:33:00:00:00:99")
        frame = v4(DEVICE_V4, CLOUD_V4, UDP(4000, 53, query), src_mac=stranger)
        index = CaptureIndex([rec(frame)], MAC_TABLE)
        assert not index.dns_queries

    def test_query_marks_source_address_dns_use(self):
        query = DNS.query(7, "x.example", TYPE_AAAA)
        index = CaptureIndex([rec(v6(DEVICE_V6, DNS_V6, UDP(4000, 53, query)))], MAC_TABLE)
        obs = index.addresses["thing"][DEVICE_V6]
        assert obs.used_for_dns and obs.used_at_all


class TestNdpEvents:
    def test_dad_recorded_and_address_observed(self):
        ns = ICMPv6.neighbor_solicit(DEVICE_V6)
        frame = v6("::", "ff02::1:ff00:5", ns)
        index = CaptureIndex([rec(frame)], MAC_TABLE)
        assert index.ndp_events[0].kind == "dad"
        obs = index.addresses["thing"][DEVICE_V6]
        assert obs.dad_seen and not obs.used_at_all

    def test_rs_counts_as_ndp_traffic(self):
        frame = v6("::", "ff02::2", ICMPv6.router_solicit())
        index = CaptureIndex([rec(frame)], MAC_TABLE)
        assert index.devices_with_ndp() == {"thing"}

    def test_unsolicited_na_reveals_assignment(self):
        na = ICMPv6.neighbor_advert(DEVICE_V6, DEVICE_MAC, solicited=False)
        index = CaptureIndex([rec(v6(DEVICE_V6, "ff02::1", na))], MAC_TABLE)
        assert DEVICE_V6 in index.addresses["thing"]


class TestFlows:
    def hello_flow(self):
        hello = TLSClientHello("cdn.vendor.example")
        return [
            rec(v6(DEVICE_V6, CLOUD_V6, TCP(5000, 443, FLAG_SYN, seq=1))),
            rec(v6(DEVICE_V6, CLOUD_V6, TCP(5000, 443, FLAG_PSH | FLAG_ACK, seq=2, payload=hello))),
            rec(
                v6(CLOUD_V6, DEVICE_V6, TCP(443, 5000, FLAG_PSH | FLAG_ACK, seq=9, payload=Raw(b"\x16" * 600)),
                   src_mac=ROUTER_MAC, dst_mac=DEVICE_MAC)
            ),
        ]

    def test_tcp_flow_aggregation_and_sni(self):
        index = CaptureIndex(self.hello_flow(), MAC_TABLE)
        assert len(index.tcp_flows) == 1
        flow = index.tcp_flows[0]
        assert flow.device == "thing"
        assert flow.sni == "cdn.vendor.example"
        assert flow.bytes_in == 600
        assert flow.bytes_out > 0
        assert not flow.is_local
        assert flow.is_data

    def test_data_marks_source_address(self):
        index = CaptureIndex(self.hello_flow(), MAC_TABLE)
        assert index.addresses["thing"][DEVICE_V6].used_for_data
        assert index.internet_data_devices(6) == {"thing"}

    def test_local_multicast_flow(self):
        frame = v6(DEVICE_LLA, "ff02::1", UDP(5540, 5540, Raw(b"matter")))
        index = CaptureIndex([rec(frame)], MAC_TABLE)
        assert index.local_data_devices(6) == {"thing"}
        assert not index.internet_data_devices(6)

    def test_dns_not_counted_as_data(self):
        query = DNS.query(1, "x.example", TYPE_A)
        index = CaptureIndex([rec(v6(DEVICE_V6, DNS_V6, UDP(4000, 53, query)))], MAC_TABLE)
        assert not index.internet_data_devices(6)

    def test_ntp_counts_as_data_and_flagged(self):
        frame = v6(DEVICE_V6, "2620:2d:4000:1::3f", UDP(123, 123, NTP()))
        index = CaptureIndex([rec(frame)], MAC_TABLE)
        assert index.internet_data_devices(6) == {"thing"}
        assert index.ntp_v6_devices == {"thing"}

    def test_v4_internet_vs_lan_classification(self):
        internet_frame = v4(DEVICE_V4, CLOUD_V4, TCP(5000, 443, FLAG_PSH, payload=Raw(b"x" * 10)))
        lan_frame = v4(DEVICE_V4, "192.168.10.60", UDP(9999, 8888, Raw(b"y")))
        index = CaptureIndex([rec(internet_frame), rec(lan_frame)], MAC_TABLE)
        internet = [f for f in index.flows if not f.is_local]
        local = [f for f in index.flows if f.is_local]
        assert len(internet) == 1 and len(local) == 1

    def test_garbage_frames_counted_not_fatal(self):
        index = CaptureIndex([PcapRecord(0.0, b"\x00" * 7)], MAC_TABLE)
        assert index.decode_errors == 1
        assert index.frame_count == 1


class TestByteAccounting:
    """Flow byte counts must equal the transport payload sizes on the wire.

    Regression test for the decode-once pipeline: ``_record_flow`` used to
    re-encode every payload to learn its length; it now reads the wire
    length stamped at decode time, which must match the pcap bytes exactly.
    """

    ETH, V6, TCP_HDR, UDP_HDR = 14, 40, 20, 8

    def _frames(self):
        return [
            v6(DEVICE_V6, CLOUD_V6, TCP(5000, 443, FLAG_PSH | FLAG_ACK, seq=1, payload=Raw(b"a" * 11))),
            v6(DEVICE_V6, CLOUD_V6, TCP(5000, 443, FLAG_PSH | FLAG_ACK, seq=12, payload=Raw(b"b" * 321))),
            v6(DEVICE_V6, CLOUD_V6, TCP(5000, 443, FLAG_ACK, seq=333)),  # bare ACK: zero payload
            v6(DEVICE_V6, CLOUD_V6, UDP(6000, 9999, Raw(b"c" * 77))),
        ]

    def test_flow_bytes_match_pcap_payload_sizes(self):
        # Round-trip through pcap so the index sees exactly the wire bytes.
        records = load_records(dump_records([rec(f) for f in self._frames()]))
        expected_tcp = sum(len(r.data) - self.ETH - self.V6 - self.TCP_HDR for r in records[:3])
        expected_udp = len(records[3].data) - self.ETH - self.V6 - self.UDP_HDR

        index = CaptureIndex(records, MAC_TABLE)
        assert index.tcp_flows[0].bytes_out == expected_tcp == 332
        assert index.udp_flows[0].bytes_out == expected_udp == 77

    def test_live_records_count_the_same_as_pcap_records(self):
        # Live captures carry the decoded frame; pcap re-reads decode fresh.
        # Both paths must account identically.
        frames = self._frames()
        raw = [f.encode() for f in frames]
        live = [PcapRecord(1.0, data, frame=Ethernet.decode(data)) for data in raw]
        replayed = load_records(dump_records([PcapRecord(1.0, data) for data in raw]))

        live_index = CaptureIndex(live, MAC_TABLE)
        replay_index = CaptureIndex(replayed, MAC_TABLE)
        live_flows = [(f.proto, f.bytes_out, f.bytes_in) for f in live_index.flows]
        replay_flows = [(f.proto, f.bytes_out, f.bytes_in) for f in replay_index.flows]
        assert live_flows == replay_flows


class TestDhcpEvents:
    def test_information_request_classified_stateless(self):
        from repro.net.dhcpv6 import DHCPv6, duid_ll

        message = DHCPv6.information_request(1, duid_ll(DEVICE_MAC))
        frame = v6(DEVICE_LLA, "ff02::1:2", UDP(546, 547, message))
        index = CaptureIndex([rec(frame)], MAC_TABLE)
        event = index.dhcp_events[0]
        assert event.protocol == "dhcpv6" and event.msg_type == 11 and not event.stateful

    def test_solicit_classified_stateful(self):
        from repro.net.dhcpv6 import DHCPv6, duid_ll

        message = DHCPv6.solicit(1, duid_ll(DEVICE_MAC), iaid=1)
        frame = v6(DEVICE_LLA, "ff02::1:2", UDP(546, 547, message))
        index = CaptureIndex([rec(frame)], MAC_TABLE)
        assert index.dhcp_events[0].stateful
