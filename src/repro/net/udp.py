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
    """A UDP datagram."""

    __slots__ = ("sport", "dport", "_payload", "_body", "_cksum_ok", "_cksum_ctx")

    def __init__(self, sport: int, dport: int, payload: Layer | None = None):
        self.sport = sport
        self.dport = dport
        self._payload = payload
        self._body: bytes | None = None
        self._cksum_ok: bool | None = None
        self._cksum_ctx: tuple | None = None
        self.wire_len = None

    @property
    def payload(self) -> Layer | None:
        """The application layer, parsed from the wire body on first access."""
        parsed = self._payload
        if parsed is UNPARSED:
            parsed = decode_udp_payload(self.sport, self.dport, self._body)
            self._payload = parsed
        return parsed

    @payload.setter
    def payload(self, value: Layer | None) -> None:
        self._payload = value

    @property
    def payload_bytes(self) -> bytes:
        """The payload's wire bytes without forcing an application parse."""
        if self._payload is UNPARSED:
            return self._body
        return self._payload.encode() if self._payload is not None else b""

    @property
    def payload_wire_len(self) -> int:
        """The payload size in wire bytes, without parsing or re-encoding."""
        if self._payload is UNPARSED:
            return len(self._body)
        if self._payload is None:
            return 0
        return self._payload.wire_length()

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

    @checksum_ok.setter
    def checksum_ok(self, value: bool | None) -> None:
        self._cksum_ctx = None
        self._cksum_ok = value

    def with_ports(self, sport: int | None = None, dport: int | None = None) -> "UDP":
        """A copy with rewritten ports, sharing the (lazy) payload state.

        NAT-style translation must not mutate a datagram in place: the link
        shares one object between every consumer, including retained
        capture records.
        """
        clone = UDP.__new__(UDP)
        clone.sport = self.sport if sport is None else sport
        clone.dport = self.dport if dport is None else dport
        clone._payload = self._payload
        clone._body = self._body
        clone._cksum_ok = self._cksum_ok
        clone._cksum_ctx = None  # ports changed; the recorded inputs no longer apply
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
    def decode(cls, data: bytes, src=None, dst=None) -> "UDP":
        if len(data) < 8:
            raise DecodeError("UDP header too short")
        sport = int.from_bytes(data[0:2], "big")
        dport = int.from_bytes(data[2:4], "big")
        length = int.from_bytes(data[4:6], "big")
        if length < 8 or length > len(data):
            raise DecodeError("UDP length inconsistent")
        wire_checksum = int.from_bytes(data[6:8], "big")
        body = data[8:length]
        udp = cls(sport, dport)
        udp._payload = UNPARSED
        udp._body = body
        udp.wire_len = length
        if src is not None and dst is not None and wire_checksum != 0:
            udp._cksum_ctx = (src, dst, wire_checksum)
        return udp

    def __repr__(self) -> str:
        return f"UDP({self.sport} > {self.dport})"


register_ip_proto(17, UDP.decode)
