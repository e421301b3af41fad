"""Ethernet II framing (the testbed LAN is a single L2 segment)."""

from __future__ import annotations

from repro.net.mac import MacAddress
from repro.net.packet import ETHERTYPE_DECODERS, DecodeError, Layer, Raw

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_IPV6 = 0x86DD


class Ethernet(Layer):
    """An Ethernet II frame."""

    __slots__ = ("dst", "src", "ethertype", "payload")

    def __init__(self, dst: MacAddress, src: MacAddress, ethertype: int, payload: Layer | None = None):
        self.dst = dst if isinstance(dst, MacAddress) else MacAddress(dst)
        self.src = src if isinstance(src, MacAddress) else MacAddress(src)
        self.ethertype = ethertype
        self.payload = payload
        self.wire_len = None

    def encode(self) -> bytes:
        body = self.payload.encode() if self.payload is not None else b""
        return self.dst.packed + self.src.packed + self.ethertype.to_bytes(2, "big") + body

    @classmethod
    def decode(cls, data: bytes) -> "Ethernet":
        if len(data) < 14:
            raise DecodeError(f"Ethernet frame too short ({len(data)} bytes)")
        dst = MacAddress.from_packed(data[0:6])
        src = MacAddress.from_packed(data[6:12])
        ethertype = int.from_bytes(data[12:14], "big")
        body = data[14:]
        decoder = ETHERTYPE_DECODERS.get(ethertype)
        if decoder is not None:
            payload: Layer = decoder(body)
        else:
            payload = Raw(body)
        frame = cls(dst, src, ethertype, payload)
        frame.wire_len = len(data)
        return frame

    def __repr__(self) -> str:
        return f"Ethernet({self.src} > {self.dst}, type=0x{self.ethertype:04x})"
