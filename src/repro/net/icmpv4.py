"""ICMPv4 (RFC 792): echo and destination-unreachable.

Used by the IPv4 side of the active port scans (§4.3): closed UDP ports
answer with Port Unreachable, and the scanner pings to confirm liveness.
"""

from __future__ import annotations

from repro.net.checksum import internet_checksum
from repro.net.packet import DecodeError, Layer, register_ip_proto

TYPE_ECHO_REPLY = 0
TYPE_DEST_UNREACHABLE = 3
TYPE_ECHO_REQUEST = 8

CODE_PORT_UNREACHABLE = 3


class ICMPv4(Layer):
    """An ICMPv4 message (echo or destination unreachable)."""

    __slots__ = ("icmp_type", "code", "identifier", "sequence", "data", "payload", "checksum_ok")

    def __init__(self, icmp_type: int, code: int = 0, identifier: int = 0, sequence: int = 0, data: bytes = b""):
        self.icmp_type = icmp_type
        self.code = code
        self.identifier = identifier
        self.sequence = sequence
        self.data = data
        self.payload = None
        self.checksum_ok: bool | None = None
        self.wire_len = None

    @classmethod
    def echo_request(cls, identifier: int, sequence: int, data: bytes = b"") -> "ICMPv4":
        return cls(TYPE_ECHO_REQUEST, identifier=identifier, sequence=sequence, data=data)

    @classmethod
    def echo_reply(cls, identifier: int, sequence: int, data: bytes = b"") -> "ICMPv4":
        return cls(TYPE_ECHO_REPLY, identifier=identifier, sequence=sequence, data=data)

    @classmethod
    def port_unreachable(cls, original_datagram: bytes) -> "ICMPv4":
        return cls(TYPE_DEST_UNREACHABLE, CODE_PORT_UNREACHABLE, data=original_datagram[:28])

    def _body(self) -> bytes:
        if self.icmp_type in (TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY):
            return self.identifier.to_bytes(2, "big") + self.sequence.to_bytes(2, "big") + self.data
        return b"\x00\x00\x00\x00" + self.data

    def encode(self) -> bytes:
        body = self._body()
        checksum = internet_checksum(bytes([self.icmp_type, self.code]) + b"\x00\x00" + body)
        return bytes([self.icmp_type, self.code]) + checksum.to_bytes(2, "big") + body

    @classmethod
    def decode(cls, data: bytes, src=None, dst=None) -> "ICMPv4":
        if len(data) < 8:
            raise DecodeError("ICMPv4 message too short")
        icmp_type, code = data[0], data[1]
        message = cls(icmp_type, code)
        if icmp_type in (TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY):
            message.identifier = int.from_bytes(data[4:6], "big")
            message.sequence = int.from_bytes(data[6:8], "big")
            message.data = data[8:]
        else:
            message.data = data[8:]
        message.checksum_ok = internet_checksum(data) == 0
        message.wire_len = len(data)
        return message

    def __repr__(self) -> str:
        names = {0: "EchoRep", 3: "DestUnreach", 8: "EchoReq"}
        return f"ICMPv4({names.get(self.icmp_type, self.icmp_type)})"


register_ip_proto(1, ICMPv4.decode)
