"""Unit + property tests for the DNS codec."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.dns import (
    DNS,
    Question,
    RCODE_NXDOMAIN,
    ResourceRecord,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_HTTPS,
    TYPE_SOA,
    TYPE_SVCB,
    decode_name,
    encode_name,
)
from repro.net.packet import DecodeError

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20).filter(
    lambda s: not s.startswith("-") and not s.endswith("-")
)
names = st.lists(labels, min_size=1, max_size=5).map(".".join)


class TestNames:
    def test_encode_simple(self):
        assert encode_name("a.bc") == b"\x01a\x02bc\x00"

    def test_root(self):
        assert encode_name("") == b"\x00"

    def test_case_folded(self):
        assert encode_name("EXAMPLE.Com") == encode_name("example.com")

    def test_trailing_dot_ignored(self):
        assert encode_name("example.com.") == encode_name("example.com")

    @given(names)
    def test_round_trip(self, name):
        encoded = encode_name(name)
        decoded, offset = decode_name(encoded, 0)
        assert decoded == name
        assert offset == len(encoded)

    def test_compression_pointer(self):
        compression = {}
        first = encode_name("www.example.com", compression, 0)
        second = encode_name("api.example.com", compression, len(first))
        # the second name must reuse a pointer to "example.com"
        assert len(second) < len(encode_name("api.example.com"))
        blob = first + second
        name2, _ = decode_name(blob, len(first))
        assert name2 == "api.example.com"

    def test_pointer_loop_rejected(self):
        with pytest.raises(DecodeError):
            decode_name(b"\xc0\x00", 0)

    def test_label_too_long_rejected(self):
        with pytest.raises(ValueError):
            encode_name("a" * 64 + ".com")


class TestMessages:
    def test_query_round_trip(self):
        query = DNS.query(0x1234, "unagi-na.amazon.com", TYPE_AAAA)
        decoded = DNS.decode(query.encode())
        assert decoded.txid == 0x1234
        assert not decoded.is_response
        assert decoded.question == Question("unagi-na.amazon.com", TYPE_AAAA)

    def test_aaaa_response_round_trip(self):
        query = DNS.query(7, "clients.google.com", TYPE_AAAA)
        response = query.response([ResourceRecord.aaaa("clients.google.com", "2607:f8b0::200e", ttl=60)])
        decoded = DNS.decode(response.encode())
        assert decoded.is_response
        assert decoded.rcode == 0
        answers = decoded.answers_of_type(TYPE_AAAA)
        assert len(answers) == 1
        assert answers[0].rdata == ipaddress.IPv6Address("2607:f8b0::200e")
        assert answers[0].ttl == 60

    def test_a_response(self):
        query = DNS.query(9, "api.amazon.com", TYPE_A)
        decoded = DNS.decode(query.response([ResourceRecord.a("api.amazon.com", "52.94.236.248")]).encode())
        assert decoded.answers[0].rdata == ipaddress.IPv4Address("52.94.236.248")

    def test_nxdomain_with_soa(self):
        query = DNS.query(11, "nope.example.net", TYPE_AAAA)
        response = query.response(
            rcode=RCODE_NXDOMAIN,
            authorities=[ResourceRecord.soa("example.net", "ns1.example.net", "admin.example.net")],
        )
        decoded = DNS.decode(response.encode())
        assert decoded.rcode == RCODE_NXDOMAIN
        assert not decoded.answers
        assert decoded.authorities[0].rtype == TYPE_SOA
        assert decoded.authorities[0].rdata[0] == "ns1.example.net"

    def test_negative_answer_no_aaaa_but_soa(self):
        """The paper's 'no such name and/or SOA' negative responses."""
        query = DNS.query(3, "a2.tuyaus.com", TYPE_AAAA)
        response = query.response(authorities=[ResourceRecord.soa("tuyaus.com", "ns.tuyaus.com", "x.tuyaus.com")])
        decoded = DNS.decode(response.encode())
        assert decoded.rcode == 0
        assert not decoded.answers_of_type(TYPE_AAAA)

    def test_cname_chain(self):
        query = DNS.query(5, "www.vendor.com", TYPE_AAAA)
        response = query.response(
            [
                ResourceRecord.cname("www.vendor.com", "edge.cdn.net"),
                ResourceRecord.aaaa("edge.cdn.net", "2a00::1"),
            ]
        )
        decoded = DNS.decode(response.encode())
        assert decoded.answers[0].rtype == TYPE_CNAME
        assert decoded.answers[0].rdata == "edge.cdn.net"
        assert decoded.answers[1].rdata == ipaddress.IPv6Address("2a00::1")

    def test_https_and_svcb_queries(self):
        for qtype in (TYPE_HTTPS, TYPE_SVCB):
            decoded = DNS.decode(DNS.query(2, "apple.com", qtype).encode())
            assert decoded.question.qtype == qtype

    def test_many_records_with_compression(self):
        query = DNS.query(20, "svc0.iot.example.com", TYPE_AAAA)
        answers = [ResourceRecord.aaaa(f"svc{i}.iot.example.com", f"2001:db8::{i + 1}") for i in range(30)]
        decoded = DNS.decode(query.response(answers).encode())
        assert len(decoded.answers) == 30
        assert decoded.answers[29].name == "svc29.iot.example.com"

    def test_truncated_rejected(self):
        with pytest.raises(DecodeError):
            DNS.decode(b"\x00\x01\x00")

    @given(st.integers(0, 0xFFFF), names, st.sampled_from([TYPE_A, TYPE_AAAA, TYPE_HTTPS]))
    def test_query_round_trip_property(self, txid, name, qtype):
        decoded = DNS.decode(DNS.query(txid, name, qtype).encode())
        assert decoded.txid == txid
        assert decoded.question.name == name
        assert decoded.question.qtype == qtype


EMPTY = tuple()
SECTIONS = ("questions", "answers", "authorities", "additionals")


class TestSharedSections:
    """Sections are immutable tuples that messages share instead of copying."""

    def test_a_query_shares_the_empty_section(self):
        query = DNS.query(1, "api.example.com", TYPE_AAAA)
        assert query.answers is EMPTY
        assert query.authorities is EMPTY
        assert query.additionals is EMPTY

    def test_queries_for_one_name_and_type_share_their_question_section(self):
        first = DNS.query(1, "api.example.com", TYPE_AAAA)
        second = DNS.query(2, "api.example.com", TYPE_AAAA)
        assert first.questions is second.questions
        assert first.questions == (Question("api.example.com", TYPE_AAAA),)
        assert DNS.query(3, "api.example.com", TYPE_A).questions is not first.questions

    def test_a_response_shares_its_query_question_section(self):
        query = DNS.query(7, "api.example.com", TYPE_A)
        response = query.response([ResourceRecord.a("api.example.com", "192.0.2.1")])
        assert response.questions is query.questions
        assert type(response.answers) is tuple and len(response.answers) == 1
        assert response.authorities is EMPTY and response.additionals is EMPTY

    def test_decode_returns_tuples(self):
        query = DNS.query(11, "nope.example.net", TYPE_AAAA)
        soa = ResourceRecord.soa("example.net", "ns1.example.net", "admin.example.net")
        for message in (query, query.response(rcode=RCODE_NXDOMAIN, authorities=[soa])):
            decoded = DNS.decode(message.encode())
            for section in SECTIONS:
                assert type(getattr(decoded, section)) is tuple, section
            assert decoded.questions == message.questions
            assert decoded.answers is EMPTY and decoded.additionals is EMPTY
