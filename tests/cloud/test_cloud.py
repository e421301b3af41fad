"""Unit tests for the DNS registry and Internet services."""

import ipaddress

import pytest

from repro.cloud import DnsRegistry, Internet
from repro.net.dns import DNS, RCODE_NXDOMAIN, TYPE_A, TYPE_AAAA, TYPE_HTTPS
from repro.net.ntp import MODE_SERVER, NTP
from repro.sim import Simulator


@pytest.fixture
def registry():
    return DnsRegistry()


@pytest.fixture
def internet(registry):
    return Internet(Simulator(seed=1), registry)


class TestRegistry:
    def test_allocation_is_deterministic(self):
        a = DnsRegistry().register("x.example", v4=True, v6=True)
        b = DnsRegistry().register("x.example", v4=True, v6=True)
        assert a.a_records == b.a_records
        assert a.aaaa_records == b.aaaa_records

    def test_v4_pool_and_v6_pool_ranges(self, registry):
        record = registry.register("x.example", v4=True, v6=True)
        assert record.a_records[0] in ipaddress.IPv4Network("34.0.0.0/8")
        assert record.aaaa_records[0] in ipaddress.IPv6Network("2600:9000::/32")

    def test_no_dot_zero_or_255_hosts(self, registry):
        for i in range(600):
            record = registry.register(f"host{i}.example", v4=True)
            assert record.a_records[0].packed[3] not in (0, 255)

    def test_reregistration_upgrades_without_reallocating(self, registry):
        first = registry.register("x.example", v4=True)
        v4 = first.a_records[0]
        second = registry.register("x.example", v4=True, v6=True)
        assert second is first
        assert first.a_records == [v4]
        assert first.has_aaaa

    def test_unreachable_v6_flag(self, registry):
        record = registry.register("bad.example", v6=True, v6_reachable=False)
        assert record.has_aaaa and not record.v6_reachable

    def test_case_insensitive_lookup(self, registry):
        registry.register("MiXeD.Example", v4=True)
        assert registry.lookup("mixed.example") is not None


class TestDnsService:
    def ask(self, internet, name, qtype):
        response = internet._dns_service(None, DNS.query(1, name, qtype))
        return DNS.decode(response.encode())

    def test_a_answer(self, internet, registry):
        registry.register("svc.example", v4=True)
        answer = self.ask(internet, "svc.example", TYPE_A)
        assert answer.answers_of_type(TYPE_A)

    def test_aaaa_answer(self, internet, registry):
        registry.register("svc.example", v4=True, v6=True)
        assert self.ask(internet, "svc.example", TYPE_AAAA).answers_of_type(TYPE_AAAA)

    def test_missing_aaaa_gives_soa_negative(self, internet, registry):
        registry.register("v4only.example", v4=True)
        answer = self.ask(internet, "v4only.example", TYPE_AAAA)
        assert answer.rcode == 0
        assert not answer.answers
        assert answer.authorities  # SOA

    def test_unknown_name_nxdomain(self, internet):
        assert self.ask(internet, "nope.example", TYPE_AAAA).rcode == RCODE_NXDOMAIN

    def test_https_query_nodata(self, internet, registry):
        registry.register("svc.example", v4=True, v6=True)
        answer = self.ask(internet, "svc.example", TYPE_HTTPS)
        assert answer.rcode == 0 and not answer.answers


class TestEndpoints:
    def test_materialize_creates_endpoints(self, internet, registry):
        record = registry.register("svc.example", v4=True, v6=True)
        internet.materialize_registry()
        assert internet._endpoints[record.a_records[0]] is not None
        assert internet._endpoints[record.aaaa_records[0]] is not None

    def test_unreachable_endpoint_drops(self, internet, registry):
        from repro.net.ipv6 import IPv6
        from repro.net.udp import UDP
        from repro.net.packet import Raw

        record = registry.register("bad.example", v6=True, v6_reachable=False)
        internet.materialize_registry()
        before = internet.dropped
        internet.deliver_v6(IPv6("2001:db8::1", record.aaaa_records[0], 17, UDP(1, 2, Raw(b"x"))))
        assert internet.dropped == before + 1

    def test_unknown_destination_drops(self, internet):
        from repro.net.ipv4 import IPv4
        from repro.net.udp import UDP

        before = internet.dropped
        internet.deliver_v4(IPv4("192.0.2.1", "34.9.9.9", 17, UDP(1, 2)))
        assert internet.dropped == before + 1

    def test_ntp_service_replies(self, internet):
        reply = internet._ntp_service(None, NTP())
        assert isinstance(reply, NTP) and reply.mode == MODE_SERVER

    def test_tls_service_returns_server_hello(self):
        from repro.cloud.internet import default_tcp_service
        from repro.net.tls import TLSClientHello

        response = default_tcp_service(TLSClientHello("x.example").encode())
        assert response.startswith(b"\x16\x03\x03")

    def test_generic_service_echoes_sized_blob(self):
        from repro.cloud.internet import default_tcp_service

        blob = b"\x17\x03\x03" + (100).to_bytes(2, "big") + bytes(100)
        response = default_tcp_service(blob)
        assert len(response) == len(blob)

    def test_equal_length_echoes_share_one_object(self):
        from repro.cloud.internet import app_data_record, default_tcp_service

        first, second = (b"\x17\x03\x03" + (100).to_bytes(2, "big") + bytes(100) for _ in range(2))
        assert first is not second
        assert default_tcp_service(first) is default_tcp_service(second) is app_data_record(100)
