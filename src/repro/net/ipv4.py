"""IPv4 (RFC 791) — the baseline protocol of the IPv4-only experiments."""

from __future__ import annotations

import functools
import ipaddress

from repro.net.checksum import internet_checksum
from repro.net.packet import IP_PROTO_DECODERS, DecodeError, Layer, Raw, register_ethertype

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


class _InternedIPv4Address(ipaddress.IPv4Address):
    """An ``IPv4Address`` with a precomputed hash (see ``_InternedIPv6Address``)."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The base class pickles by value and would rebuild without ``_hash``;
        # round-trip through the factory so fleet workers re-intern on load.
        return (intern_ipv4, (self.packed,))


@functools.lru_cache(maxsize=1 << 16)
def intern_ipv4(packed: bytes) -> ipaddress.IPv4Address:
    """An interned ``IPv4Address`` for 4 raw wire bytes (decode hot path)."""
    addr = _InternedIPv4Address(packed)
    addr._hash = ipaddress.IPv4Address.__hash__(addr)
    return addr


def as_ipv4(value) -> ipaddress.IPv4Address:
    """Coerce to an interned ``IPv4Address`` (precomputed hash; see ip6)."""
    if type(value) is _InternedIPv4Address:
        return value
    if isinstance(value, ipaddress.IPv4Address):
        return intern_ipv4(value.packed)
    if isinstance(value, bytes):
        if len(value) != 4:
            raise ValueError("packed IPv4 address must be 4 bytes")
        return intern_ipv4(value)
    return intern_ipv4(ipaddress.IPv4Address(value).packed)


class IPv4(Layer):
    """An IPv4 header (no options) plus payload."""

    __slots__ = ("src", "dst", "proto", "ttl", "identification", "payload")

    def __init__(self, src, dst, proto: int, payload: Layer | None = None, ttl: int = 64, identification: int = 0):
        self.src = as_ipv4(src)
        self.dst = as_ipv4(dst)
        self.proto = proto
        self.ttl = ttl
        self.identification = identification
        self.payload = payload
        self.wire_len = None

    def _payload_bytes(self) -> bytes:
        if self.payload is None:
            return b""
        encode = getattr(self.payload, "encode_transport", None)
        if encode is not None:
            return encode(self.src, self.dst)
        return self.payload.encode()

    def encode(self) -> bytes:
        body = self._payload_bytes()
        header = (
            bytes([0x45, 0])  # version 4, 5-word header; DSCP/ECN 0
            + (20 + len(body)).to_bytes(2, "big")
            + self.identification.to_bytes(2, "big")
            + b"\x00\x00"  # flags and fragment offset
            + bytes([self.ttl, self.proto])
            + b"\x00\x00"  # header checksum, computed over this header
            + self.src.packed
            + self.dst.packed
        )
        return header[:10] + internet_checksum(header).to_bytes(2, "big") + header[12:] + body

    @classmethod
    def decode(cls, data: bytes) -> "IPv4":
        if len(data) < 20:
            raise DecodeError("IPv4 header too short")
        version = data[0] >> 4
        if version != 4:
            raise DecodeError(f"not IPv4 (version={version})")
        ihl = (data[0] & 0x0F) * 4
        total_length = int.from_bytes(data[2:4], "big")
        if total_length > len(data) or ihl < 20:
            raise DecodeError("IPv4 length fields inconsistent")
        src = intern_ipv4(data[12:16])
        dst = intern_ipv4(data[16:20])
        proto = data[9]
        body = data[ihl:total_length]
        decoder = IP_PROTO_DECODERS.get(proto)
        if decoder is not None:
            payload: Layer = decoder(body, src, dst)
        else:
            payload = Raw(body)
        # src/dst are already interned address objects, so skip __init__'s
        # coercion on this hot path and set the slots directly.
        packet = cls.__new__(cls)
        packet.src = src
        packet.dst = dst
        packet.proto = proto
        packet.ttl = data[8]
        packet.identification = int.from_bytes(data[4:6], "big")
        packet.payload = payload
        packet.wire_len = total_length
        return packet

    def __repr__(self) -> str:
        return f"IPv4({self.src} > {self.dst}, proto={self.proto})"


register_ethertype(0x0800, IPv4.decode)
