"""IPv6 (RFC 8200) fixed header plus payload."""

from __future__ import annotations

from repro.net.ip6 import as_ipv6, intern_ipv6
from repro.net.packet import IP_PROTO_DECODERS, DecodeError, Layer, Raw, register_ethertype

NEXT_HEADER_TCP = 6
NEXT_HEADER_UDP = 17
NEXT_HEADER_ICMPV6 = 58


class IPv6(Layer):
    """An IPv6 fixed header (we do not model extension headers; the traffic
    the paper analyzes — NDP, DNS, DHCPv6, TCP/UDP app data — does not use
    them)."""

    __slots__ = ("src", "dst", "next_header", "hop_limit", "traffic_class", "flow_label", "payload")

    def __init__(
        self,
        src,
        dst,
        next_header: int,
        payload: Layer | None = None,
        hop_limit: int = 64,
        traffic_class: int = 0,
        flow_label: int = 0,
    ):
        self.src = as_ipv6(src)
        self.dst = as_ipv6(dst)
        self.next_header = next_header
        self.hop_limit = hop_limit
        self.traffic_class = traffic_class
        self.flow_label = flow_label
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
        first_word = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return (
            first_word.to_bytes(4, "big")
            + len(body).to_bytes(2, "big")
            + bytes([self.next_header, self.hop_limit])
            + self.src.packed
            + self.dst.packed
            + body
        )

    @classmethod
    def decode(cls, data: bytes) -> "IPv6":
        if len(data) < 40:
            raise DecodeError("IPv6 header too short")
        first_word = int.from_bytes(data[0:4], "big")
        version = first_word >> 28
        if version != 6:
            raise DecodeError(f"not IPv6 (version={version})")
        payload_length = int.from_bytes(data[4:6], "big")
        next_header = data[6]
        hop_limit = data[7]
        src = intern_ipv6(data[8:24])
        dst = intern_ipv6(data[24:40])
        body = data[40 : 40 + payload_length]
        if len(body) < payload_length:
            raise DecodeError("IPv6 payload truncated")
        decoder = IP_PROTO_DECODERS.get(next_header)
        if decoder is not None:
            payload: Layer = decoder(body, src, dst)
        else:
            payload = Raw(body)
        # src/dst are already interned address objects, so skip __init__'s
        # coercion on this hot path and set the slots directly.
        packet = cls.__new__(cls)
        packet.src = src
        packet.dst = dst
        packet.next_header = next_header
        packet.hop_limit = hop_limit
        packet.traffic_class = (first_word >> 20) & 0xFF
        packet.flow_label = first_word & 0xFFFFF
        packet.payload = payload
        packet.wire_len = 40 + payload_length
        return packet

    def __repr__(self) -> str:
        return f"IPv6({self.src} > {self.dst}, nh={self.next_header})"


register_ethertype(0x86DD, IPv6.decode)
