"""DHCPv6 (RFC 8415) — stateless and stateful configuration.

The testbed's router offers stateless DHCPv6 (DNS configuration via
INFORMATION-REQUEST / REPLY) in the baseline configurations and stateful
DHCPv6 (SOLICIT / ADVERTISE / REQUEST / REPLY with IA_NA address leases) in
the *stateful* variants of Table 2.
"""

from __future__ import annotations

from typing import Optional

from repro.net.mac import MacAddress
from repro.net.ip6 import as_ipv6
from repro.net.packet import DecodeError, Layer, register_udp_port

CLIENT_PORT = 546
SERVER_PORT = 547

MSG_SOLICIT = 1
MSG_ADVERTISE = 2
MSG_REQUEST = 3
MSG_RENEW = 5
MSG_REPLY = 7
MSG_RELEASE = 8
MSG_INFORMATION_REQUEST = 11

MSG_NAMES = {
    MSG_SOLICIT: "SOLICIT",
    MSG_ADVERTISE: "ADVERTISE",
    MSG_REQUEST: "REQUEST",
    MSG_RENEW: "RENEW",
    MSG_REPLY: "REPLY",
    MSG_RELEASE: "RELEASE",
    MSG_INFORMATION_REQUEST: "INFORMATION-REQUEST",
}

OPT_CLIENTID = 1
OPT_SERVERID = 2
OPT_IA_NA = 3
OPT_IAADDR = 5
OPT_ORO = 6
OPT_DNS_SERVERS = 23

ALL_DHCP_RELAY_AGENTS_AND_SERVERS = as_ipv6("ff02::1:2")


def duid_ll(mac: MacAddress) -> bytes:
    """A DUID-LL (type 3, hardware type Ethernet) for a MAC address."""
    return b"\x00\x03\x00\x01" + mac.packed


class IAAddress:
    """An IA Address option (the leased address inside an IA_NA)."""

    __slots__ = ("address", "preferred_lifetime", "valid_lifetime")

    def __init__(self, address, preferred_lifetime: int = 3600, valid_lifetime: int = 7200):
        self.address = as_ipv6(address)
        self.preferred_lifetime = preferred_lifetime
        self.valid_lifetime = valid_lifetime

    def encode(self) -> bytes:
        body = (
            self.address.packed
            + self.preferred_lifetime.to_bytes(4, "big")
            + self.valid_lifetime.to_bytes(4, "big")
        )
        return OPT_IAADDR.to_bytes(2, "big") + len(body).to_bytes(2, "big") + body

    def __repr__(self) -> str:
        return f"IAAddress({self.address})"


class DHCPv6(Layer):
    """A DHCPv6 message with the option subset the testbed uses."""

    __slots__ = (
        "msg_type",
        "transaction_id",
        "client_duid",
        "server_duid",
        "iaid",
        "ia_addresses",
        "has_ia_na",
        "requested_options",
        "dns_servers",
        "payload",
    )

    def __init__(
        self,
        msg_type: int,
        transaction_id: int,
        *,
        client_duid: Optional[bytes] = None,
        server_duid: Optional[bytes] = None,
        iaid: int = 0,
        has_ia_na: bool = False,
        ia_addresses: Optional[list[IAAddress]] = None,
        requested_options: Optional[list[int]] = None,
        dns_servers: Optional[list] = None,
    ):
        self.msg_type = msg_type
        self.transaction_id = transaction_id & 0xFFFFFF
        self.client_duid = client_duid
        self.server_duid = server_duid
        self.iaid = iaid
        self.has_ia_na = has_ia_na or bool(ia_addresses)
        self.ia_addresses = ia_addresses or []
        self.requested_options = requested_options or []
        self.dns_servers = [as_ipv6(s) for s in (dns_servers or [])]
        self.payload = None
        self.wire_len = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def solicit(cls, transaction_id: int, client_duid: bytes, iaid: int) -> "DHCPv6":
        return cls(
            MSG_SOLICIT,
            transaction_id,
            client_duid=client_duid,
            iaid=iaid,
            has_ia_na=True,
            requested_options=[OPT_DNS_SERVERS],
        )

    @classmethod
    def information_request(cls, transaction_id: int, client_duid: bytes) -> "DHCPv6":
        return cls(
            MSG_INFORMATION_REQUEST,
            transaction_id,
            client_duid=client_duid,
            requested_options=[OPT_DNS_SERVERS],
        )

    # -- codec ---------------------------------------------------------------

    @staticmethod
    def _option(code: int, body: bytes) -> bytes:
        return code.to_bytes(2, "big") + len(body).to_bytes(2, "big") + body

    def encode(self) -> bytes:
        out = bytearray(bytes([self.msg_type]) + self.transaction_id.to_bytes(3, "big"))
        if self.client_duid is not None:
            out += self._option(OPT_CLIENTID, self.client_duid)
        if self.server_duid is not None:
            out += self._option(OPT_SERVERID, self.server_duid)
        if self.has_ia_na:
            ia_body = self.iaid.to_bytes(4, "big") + (0).to_bytes(4, "big") + (0).to_bytes(4, "big")
            ia_body += b"".join(addr.encode() for addr in self.ia_addresses)
            out += self._option(OPT_IA_NA, ia_body)
        if self.requested_options:
            out += self._option(OPT_ORO, b"".join(o.to_bytes(2, "big") for o in self.requested_options))
        if self.dns_servers:
            out += self._option(OPT_DNS_SERVERS, b"".join(s.packed for s in self.dns_servers))
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "DHCPv6":
        if len(data) < 4:
            raise DecodeError("DHCPv6 message too short")
        msg_type = data[0]
        if msg_type not in MSG_NAMES:
            raise DecodeError(f"unknown DHCPv6 message type {msg_type}")
        message = cls(msg_type, int.from_bytes(data[1:4], "big"))
        offset = 4
        while offset < len(data):
            if offset + 4 > len(data):
                raise DecodeError("truncated DHCPv6 option header")
            code = int.from_bytes(data[offset : offset + 2], "big")
            length = int.from_bytes(data[offset + 2 : offset + 4], "big")
            body = data[offset + 4 : offset + 4 + length]
            if len(body) < length:
                raise DecodeError("truncated DHCPv6 option body")
            if code == OPT_CLIENTID:
                message.client_duid = body
            elif code == OPT_SERVERID:
                message.server_duid = body
            elif code == OPT_IA_NA and length >= 12:
                message.has_ia_na = True
                message.iaid = int.from_bytes(body[0:4], "big")
                pos = 12
                while pos + 4 <= len(body):
                    sub_code = int.from_bytes(body[pos : pos + 2], "big")
                    sub_len = int.from_bytes(body[pos + 2 : pos + 4], "big")
                    sub_body = body[pos + 4 : pos + 4 + sub_len]
                    if sub_code == OPT_IAADDR and sub_len >= 24:
                        message.ia_addresses.append(
                            IAAddress(
                                as_ipv6(sub_body[0:16]),
                                int.from_bytes(sub_body[16:20], "big"),
                                int.from_bytes(sub_body[20:24], "big"),
                            )
                        )
                    pos += 4 + sub_len
            elif code == OPT_ORO:
                message.requested_options = [
                    int.from_bytes(body[i : i + 2], "big") for i in range(0, len(body) - 1, 2)
                ]
            elif code == OPT_DNS_SERVERS:
                message.dns_servers = [
                    as_ipv6(body[i : i + 16]) for i in range(0, len(body) - 15, 16)
                ]
            offset += 4 + length
        message.wire_len = len(data)
        return message

    def __repr__(self) -> str:
        return f"DHCPv6({MSG_NAMES.get(self.msg_type, self.msg_type)}, xid={self.transaction_id:06x})"


register_udp_port(CLIENT_PORT, DHCPv6.decode)
register_udp_port(SERVER_PORT, DHCPv6.decode)
