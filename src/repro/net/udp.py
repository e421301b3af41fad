"""UDP (RFC 768) with v4/v6 pseudo-header checksums.

Decoding is two-stage: the 8-byte header parses eagerly, but the application
payload (DNS, DHCPv6, NTP, ...) parses lazily on first ``.payload`` access.
Consumers that only need the size of the payload — flow accounting, port
filters — read ``payload_wire_len`` and never pay the application parse.
"""

from __future__ import annotations

from repro.net.checksum import segment_checksum
from repro.net.packet import UNPARSED, DecodeError, Layer, decode_udp_payload, register_ip_proto


class UDP(Layer):
    """A UDP datagram, as a sender builds it.

    :meth:`decode` returns a :class:`DecodedUDP`, which adds the state only
    a parsed datagram needs: the wire body behind its lazy payload parse and
    the inputs of its lazy checksum verdict.
    """

    __slots__ = ("sport", "dport", "_payload")

    # A datagram built in memory has no wire checksum to verify.
    checksum_ok: bool | None = None

    def __init__(self, sport: int, dport: int, payload: Layer | None = None):
        self.sport = sport
        self.dport = dport
        self._payload = payload
        self.wire_len = None

    @property
    def payload(self) -> Layer | None:
        return self._payload

    @payload.setter
    def payload(self, value: Layer | None) -> None:
        self._payload = value

    @property
    def payload_bytes(self) -> bytes:
        """The payload's wire bytes without forcing an application parse."""
        return self._payload.encode() if self._payload is not None else b""

    @property
    def payload_wire_len(self) -> int:
        """The payload size in wire bytes, without parsing or re-encoding."""
        return self._payload.wire_length() if self._payload is not None else 0

    def with_ports(self, sport: int | None = None, dport: int | None = None) -> "UDP":
        """A copy with rewritten ports, sharing the (lazy) payload state.

        NAT-style translation must not mutate a datagram in place: the link
        shares one object between every consumer, including retained
        capture records.
        """
        cls = type(self)
        clone = cls.__new__(cls)
        clone.sport = self.sport if sport is None else sport
        clone.dport = self.dport if dport is None else dport
        clone._payload = self._payload
        clone.wire_len = self.wire_len
        return clone

    def _datagram(self, body: bytes) -> bytes:
        """The datagram around ``body``, with its checksum field zero."""
        return (
            self.sport.to_bytes(2, "big")
            + self.dport.to_bytes(2, "big")
            + (8 + len(body)).to_bytes(2, "big")
            + b"\x00\x00"
            + body
        )

    def encode_transport(self, src, dst) -> bytes:
        datagram = self.encode()
        return datagram[:6] + segment_checksum(src, dst, 17, datagram).to_bytes(2, "big") + datagram[8:]

    def encode(self) -> bytes:
        """The datagram with its checksum field zero; ``encode_transport``
        fills it in under the enclosing IP addresses."""
        return self._datagram(self.payload_bytes)

    @classmethod
    def decode(cls, data: bytes, src=None, dst=None) -> "DecodedUDP":
        if len(data) < 8:
            raise DecodeError("UDP header too short")
        length = int.from_bytes(data[4:6], "big")
        if length < 8 or length > len(data):
            raise DecodeError("UDP length inconsistent")
        wire_checksum = int.from_bytes(data[6:8], "big")
        udp = DecodedUDP(int.from_bytes(data[0:2], "big"), int.from_bytes(data[2:4], "big"))
        udp._payload = UNPARSED
        udp._body = data[8:length]
        udp._cksum_ok = None
        udp._cksum_ctx = (src, dst, wire_checksum) if src is not None and dst is not None and wire_checksum else None
        udp.wire_len = length
        return udp

    def __repr__(self) -> str:
        return f"UDP({self.sport} > {self.dport})"


class DecodedUDP(UDP):
    """A datagram parsed from wire bytes.

    The header decodes eagerly. The application payload (DNS, DHCPv6, NTP,
    ...) parses from the kept body on first ``.payload`` access, and the
    checksum verifies on first ``checksum_ok`` access.
    """

    __slots__ = ("_body", "_cksum_ok", "_cksum_ctx")

    @UDP.payload.getter
    def payload(self) -> Layer | None:
        """The application layer, parsed from the wire body on first access."""
        parsed = self._payload
        if parsed is UNPARSED:
            parsed = decode_udp_payload(self.sport, self.dport, self._body)
            self._payload = parsed
        return parsed

    @property
    def payload_bytes(self) -> bytes:
        return self._body if self._payload is UNPARSED else super().payload_bytes

    @property
    def payload_wire_len(self) -> int:
        return len(self._body) if self._payload is UNPARSED else super().payload_wire_len

    @property
    def checksum_ok(self) -> bool | None:
        """Wire-checksum verdict, verified lazily on first access.

        The simulator itself never reads this (links are lossless), so the
        decode hot path only records the pseudo-header inputs; the actual
        fold runs when a consumer asks.
        """
        ctx = self._cksum_ctx
        if ctx is not None:
            src, dst, wire_checksum = ctx
            self._cksum_ctx = None
            # The header fields and body were all parsed from the received
            # bytes, so this rebuilds them with the checksum field zeroed.
            self._cksum_ok = segment_checksum(src, dst, 17, self._datagram(self._body)) == wire_checksum
        return self._cksum_ok

    def with_ports(self, sport: int | None = None, dport: int | None = None) -> "DecodedUDP":
        clone = super().with_ports(sport, dport)
        clone._body = self._body
        clone._cksum_ok = self._cksum_ok
        clone._cksum_ctx = None  # ports changed; the recorded inputs no longer apply
        return clone


register_ip_proto(17, UDP.decode)
