"""DNS messages (RFC 1035, RFC 3596 for AAAA, RFC 9460 for SVCB/HTTPS).

Implements a complete wire codec — header, question/answer/authority
sections, name compression on encode and decode — because the analysis
pipeline classifies devices by the AAAA/A queries and responses it parses out
of raw captures (§5.2.2), including NXDOMAIN/SOA negative answers and the
HTTPS/SVCB queries some Apple/Android devices issue.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

from repro.net.ip6 import as_ipv6, intern_ipv6
from repro.net.ipv4 import as_ipv4, intern_ipv4
from repro.net.packet import DecodeError, Layer, register_udp_port, register_tcp_port

TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_SOA = 6
TYPE_PTR = 12
TYPE_TXT = 16
TYPE_AAAA = 28
TYPE_SVCB = 64
TYPE_HTTPS = 65

CLASS_IN = 1

RCODE_NOERROR = 0
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

TYPE_NAMES = {
    TYPE_A: "A",
    TYPE_NS: "NS",
    TYPE_CNAME: "CNAME",
    TYPE_SOA: "SOA",
    TYPE_PTR: "PTR",
    TYPE_TXT: "TXT",
    TYPE_AAAA: "AAAA",
    TYPE_SVCB: "SVCB",
    TYPE_HTTPS: "HTTPS",
}


@functools.lru_cache(maxsize=1 << 12)
def _normalize(name: str) -> str:
    # Every Question/ResourceRecord constructor runs this; the simulated
    # Internet resolves a small, fixed set of names millions of times.
    return name.rstrip(".").lower()


def encode_name(name: str, compression: dict[str, int] | None = None, offset: int = 0) -> bytes:
    """Encode a domain name, optionally using/recording compression pointers.

    ``compression`` maps each name suffix already in the message to its
    offset there; ``offset`` is where this name starts.
    """
    name = _normalize(name)
    if not name:
        return b"\x00"
    out = bytearray()
    labels = name.split(".")
    for i, label in enumerate(labels):
        if compression is not None:
            suffix = ".".join(labels[i:])
            pointer = compression.get(suffix)
            if pointer is not None:
                out += bytes([0xC0 | (pointer >> 8), pointer & 0xFF])
                return bytes(out)
            if offset + len(out) < 0x3FFF:
                compression[suffix] = offset + len(out)
        raw = label.encode("ascii")
        if not 0 < len(raw) < 64:
            raise ValueError(f"invalid DNS label in {name!r}")
        out += bytes([len(raw)]) + raw
    out += b"\x00"
    return bytes(out)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next offset)."""
    labels: list[str] = []
    jumps = 0
    end: Optional[int] = None
    while True:
        if offset >= len(data):
            raise DecodeError("name runs past end of message")
        length = data[offset]
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(data):
                raise DecodeError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if end is None:
                end = offset + 2
            if pointer >= offset and jumps == 0:
                raise DecodeError("forward compression pointer")
            offset = pointer
            jumps += 1
            if jumps > 64:
                raise DecodeError("compression pointer loop")
            continue
        if length & 0xC0:
            raise DecodeError("reserved label type")
        offset += 1
        if length == 0:
            break
        if offset + length > len(data):
            raise DecodeError("label runs past end of message")
        labels.append(data[offset : offset + length].decode("ascii", errors="replace"))
        offset += length
    return ".".join(labels), (end if end is not None else offset)


class Question:
    """A DNS question."""

    __slots__ = ("name", "qtype", "qclass")

    def __init__(self, name: str, qtype: int, qclass: int = CLASS_IN):
        self.name = _normalize(name)
        self.qtype = qtype
        self.qclass = qclass

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Question)
            and (other.name, other.qtype, other.qclass) == (self.name, self.qtype, self.qclass)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.qtype, self.qclass))

    def __repr__(self) -> str:
        return f"Question({self.name} {TYPE_NAMES.get(self.qtype, self.qtype)})"


class ResourceRecord:
    """A DNS resource record with typed rdata.

    ``rdata`` is an ``IPv4Address`` for A, ``IPv6Address`` for AAAA, a target
    name for CNAME/NS/PTR, a ``(mname, rname, serial)`` tuple for SOA, and raw
    bytes otherwise.
    """

    __slots__ = ("name", "rtype", "ttl", "rdata", "rclass")

    def __init__(self, name: str, rtype: int, rdata, ttl: int = 300, rclass: int = CLASS_IN):
        self.name = _normalize(name)
        self.rtype = rtype
        self.ttl = ttl
        self.rdata = rdata
        self.rclass = rclass

    @classmethod
    def a(cls, name: str, address, ttl: int = 300) -> "ResourceRecord":
        return cls(name, TYPE_A, as_ipv4(address), ttl)

    @classmethod
    def aaaa(cls, name: str, address, ttl: int = 300) -> "ResourceRecord":
        return cls(name, TYPE_AAAA, as_ipv6(address), ttl)

    @classmethod
    def cname(cls, name: str, target: str, ttl: int = 300) -> "ResourceRecord":
        return cls(name, TYPE_CNAME, _normalize(target), ttl)

    @classmethod
    def soa(cls, name: str, mname: str, rname: str, serial: int = 1, ttl: int = 300) -> "ResourceRecord":
        return cls(name, TYPE_SOA, (_normalize(mname), _normalize(rname), serial), ttl)

    def _rdata_bytes(self, compression: dict[str, int], offset: int) -> bytes:
        if self.rtype in (TYPE_A, TYPE_AAAA):
            return self.rdata.packed
        if self.rtype in (TYPE_CNAME, TYPE_NS, TYPE_PTR):
            return encode_name(self.rdata, compression, offset)
        if self.rtype == TYPE_SOA:
            mname, rname, serial = self.rdata
            out = encode_name(mname, compression, offset)
            out += encode_name(rname, compression, offset + len(out))
            out += serial.to_bytes(4, "big") + (3600).to_bytes(4, "big")
            out += (900).to_bytes(4, "big") + (604800).to_bytes(4, "big") + (300).to_bytes(4, "big")
            return out
        if isinstance(self.rdata, bytes):
            return self.rdata
        raise TypeError(f"cannot encode rdata for type {self.rtype}")

    def __repr__(self) -> str:
        return f"RR({self.name} {TYPE_NAMES.get(self.rtype, self.rtype)} {self.rdata})"


@functools.lru_cache(maxsize=1 << 12)
def _question_section(name: str, qtype: int) -> tuple[Question, ...]:
    # Devices and the resolver ask a small, fixed set of (name, type) pairs
    # all study long, and a capture keeps every query: they share sections.
    return (Question(name, qtype),)


class DNS(Layer):
    """A DNS query or response message.

    Its four sections are tuples, never changed after construction, so
    messages share them: an absent section is the one empty tuple, every
    ``query`` for one (name, type) shares one question section, a
    ``response`` shares its query's, and ``with_txid`` copies share all four.
    """

    __slots__ = (
        "txid",
        "is_response",
        "rcode",
        "recursion_desired",
        "recursion_available",
        "authoritative",
        "questions",
        "answers",
        "authorities",
        "additionals",
        "payload",
    )

    def __init__(
        self,
        txid: int = 0,
        *,
        is_response: bool = False,
        rcode: int = RCODE_NOERROR,
        recursion_desired: bool = True,
        recursion_available: bool = False,
        authoritative: bool = False,
        questions: Iterable[Question] = (),
        answers: Iterable[ResourceRecord] = (),
        authorities: Iterable[ResourceRecord] = (),
        additionals: Iterable[ResourceRecord] = (),
    ):
        self.txid = txid
        self.is_response = is_response
        self.rcode = rcode
        self.recursion_desired = recursion_desired
        self.recursion_available = recursion_available
        self.authoritative = authoritative
        # tuple() returns a tuple argument itself, and an empty one as ().
        self.questions = tuple(questions)
        self.answers = tuple(answers)
        self.authorities = tuple(authorities)
        self.additionals = tuple(additionals)
        self.payload = None
        self.wire_len = None

    @classmethod
    def query(cls, txid: int, name: str, qtype: int) -> "DNS":
        return cls(txid, questions=_question_section(name, qtype))

    def response(
        self,
        answers: Iterable[ResourceRecord] = (),
        rcode: int = RCODE_NOERROR,
        authorities: Iterable[ResourceRecord] = (),
    ) -> "DNS":
        """Build a response matching this query, sharing its question section."""
        return DNS(
            self.txid,
            is_response=True,
            rcode=rcode,
            recursion_available=True,
            questions=self.questions,
            answers=answers,
            authorities=authorities,
        )

    @property
    def question(self) -> Optional[Question]:
        return self.questions[0] if self.questions else None

    def answers_of_type(self, rtype: int) -> list[ResourceRecord]:
        return [rr for rr in self.answers if rr.rtype == rtype]

    def with_txid(self, txid: int) -> "DNS":
        """A shallow copy carrying a different transaction ID.

        The resolver answers the same question with the same sections for
        every client; copies share them.
        """
        clone = DNS.__new__(DNS)
        clone.txid = txid
        clone.is_response = self.is_response
        clone.rcode = self.rcode
        clone.recursion_desired = self.recursion_desired
        clone.recursion_available = self.recursion_available
        clone.authoritative = self.authoritative
        clone.questions = self.questions
        clone.answers = self.answers
        clone.authorities = self.authorities
        clone.additionals = self.additionals
        clone.payload = None
        clone.wire_len = self.wire_len
        return clone

    def encode(self) -> bytes:
        flags = 0
        if self.is_response:
            flags |= 0x8000
        if self.authoritative:
            flags |= 0x0400
        if self.recursion_desired:
            flags |= 0x0100
        if self.recursion_available:
            flags |= 0x0080
        flags |= self.rcode & 0x0F
        out = bytearray(
            self.txid.to_bytes(2, "big")
            + flags.to_bytes(2, "big")
            + len(self.questions).to_bytes(2, "big")
            + len(self.answers).to_bytes(2, "big")
            + len(self.authorities).to_bytes(2, "big")
            + len(self.additionals).to_bytes(2, "big")
        )
        compression: dict[str, int] = {}
        for q in self.questions:
            out += encode_name(q.name, compression, len(out))
            out += q.qtype.to_bytes(2, "big") + q.qclass.to_bytes(2, "big")
        for section in (self.answers, self.authorities, self.additionals):
            for rr in section:
                out += encode_name(rr.name, compression, len(out))
                out += rr.rtype.to_bytes(2, "big") + rr.rclass.to_bytes(2, "big")
                out += rr.ttl.to_bytes(4, "big")
                rdata = rr._rdata_bytes(compression, len(out) + 2)
                out += len(rdata).to_bytes(2, "big") + rdata
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "DNS":
        if len(data) < 12:
            raise DecodeError("DNS message too short")
        txid = int.from_bytes(data[0:2], "big")
        flags = int.from_bytes(data[2:4], "big")
        counts = [int.from_bytes(data[i : i + 2], "big") for i in (4, 6, 8, 10)]
        questions = []
        offset = 12
        for _ in range(counts[0]):
            name, offset = decode_name(data, offset)
            if offset + 4 > len(data):
                raise DecodeError("truncated question")
            qtype = int.from_bytes(data[offset : offset + 2], "big")
            qclass = int.from_bytes(data[offset + 2 : offset + 4], "big")
            offset += 4
            questions.append(Question(name, qtype, qclass))
        sections = []
        for count in counts[1:]:
            records = []
            for _ in range(count):
                rr, offset = cls._decode_rr(data, offset)
                records.append(rr)
            sections.append(records)
        answers, authorities, additionals = sections
        message = cls(
            txid,
            is_response=bool(flags & 0x8000),
            rcode=flags & 0x0F,
            recursion_desired=bool(flags & 0x0100),
            recursion_available=bool(flags & 0x0080),
            authoritative=bool(flags & 0x0400),
            questions=questions,
            answers=answers,
            authorities=authorities,
            additionals=additionals,
        )
        message.wire_len = len(data)
        return message

    @staticmethod
    def _decode_rr(data: bytes, offset: int) -> tuple[ResourceRecord, int]:
        name, offset = decode_name(data, offset)
        if offset + 10 > len(data):
            raise DecodeError("truncated resource record")
        rtype = int.from_bytes(data[offset : offset + 2], "big")
        rclass = int.from_bytes(data[offset + 2 : offset + 4], "big")
        ttl = int.from_bytes(data[offset + 4 : offset + 8], "big")
        rdlength = int.from_bytes(data[offset + 8 : offset + 10], "big")
        offset += 10
        if offset + rdlength > len(data):
            raise DecodeError("rdata runs past end of message")
        raw = data[offset : offset + rdlength]
        rdata: object
        if rtype == TYPE_A and rdlength == 4:
            rdata = intern_ipv4(raw)
        elif rtype == TYPE_AAAA and rdlength == 16:
            rdata = intern_ipv6(raw)
        elif rtype in (TYPE_CNAME, TYPE_NS, TYPE_PTR):
            rdata, _ = decode_name(data, offset)
        elif rtype == TYPE_SOA:
            mname, pos = decode_name(data, offset)
            rname, pos = decode_name(data, pos)
            serial = int.from_bytes(data[pos : pos + 4], "big") if pos + 4 <= len(data) else 0
            rdata = (mname, rname, serial)
        else:
            rdata = raw
        offset += rdlength
        return ResourceRecord(name, rtype, rdata, ttl, rclass), offset

    def __repr__(self) -> str:
        kind = "response" if self.is_response else "query"
        q = self.question
        label = f"{q.name} {TYPE_NAMES.get(q.qtype, q.qtype)}" if q else "?"
        return f"DNS({kind}, {label}, rcode={self.rcode}, answers={len(self.answers)})"


register_udp_port(53, DNS.decode)
register_tcp_port(53, DNS.decode)
