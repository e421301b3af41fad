"""ARP (RFC 826) — IPv4 address resolution on the testbed LAN."""

from __future__ import annotations

from repro.net.ipv4 import as_ipv4
from repro.net.mac import MacAddress
from repro.net.packet import DecodeError, Layer, register_ethertype

OP_REQUEST = 1
OP_REPLY = 2


class ARP(Layer):
    """An Ethernet/IPv4 ARP message."""

    __slots__ = ("op", "sender_mac", "sender_ip", "target_mac", "target_ip", "payload")

    def __init__(self, op: int, sender_mac, sender_ip, target_mac, target_ip):
        self.op = op
        self.sender_mac = MacAddress(sender_mac)
        self.sender_ip = as_ipv4(sender_ip)
        self.target_mac = MacAddress(target_mac)
        self.target_ip = as_ipv4(target_ip)
        self.payload = None
        self.wire_len = None

    @classmethod
    def request(cls, sender_mac, sender_ip, target_ip) -> "ARP":
        return cls(OP_REQUEST, sender_mac, sender_ip, MacAddress(b"\x00" * 6), target_ip)

    @classmethod
    def reply(cls, sender_mac, sender_ip, target_mac, target_ip) -> "ARP":
        return cls(OP_REPLY, sender_mac, sender_ip, target_mac, target_ip)

    def encode(self) -> bytes:
        return (
            (1).to_bytes(2, "big")  # hardware type: Ethernet
            + (0x0800).to_bytes(2, "big")  # protocol type: IPv4
            + bytes([6, 4])  # address lengths
            + self.op.to_bytes(2, "big")
            + self.sender_mac.packed
            + self.sender_ip.packed
            + self.target_mac.packed
            + self.target_ip.packed
        )

    @classmethod
    def decode(cls, data: bytes) -> "ARP":
        if len(data) < 28:
            raise DecodeError("ARP message too short")
        if data[0:2] != b"\x00\x01" or data[2:4] != b"\x08\x00":
            raise DecodeError("unsupported ARP hardware/protocol type")
        message = cls(
            int.from_bytes(data[6:8], "big"),
            MacAddress.from_packed(data[8:14]),
            as_ipv4(data[14:18]),
            MacAddress.from_packed(data[18:24]),
            as_ipv4(data[24:28]),
        )
        message.wire_len = len(data)
        return message

    def __repr__(self) -> str:
        kind = "request" if self.op == OP_REQUEST else "reply"
        return f"ARP({kind}, {self.sender_ip} -> {self.target_ip})"


register_ethertype(0x0806, ARP.decode)
