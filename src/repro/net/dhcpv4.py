"""DHCPv4 (RFC 2131) — how the testbed router hands out private IPv4 leases."""

from __future__ import annotations

from typing import Optional

from repro.net.mac import MacAddress
from repro.net.ipv4 import as_ipv4
from repro.net.packet import DecodeError, Layer, register_udp_port

SERVER_PORT = 67
CLIENT_PORT = 68

OP_REQUEST = 1
OP_REPLY = 2

MAGIC_COOKIE = b"\x63\x82\x53\x63"

OPT_SUBNET_MASK = 1
OPT_ROUTER = 3
OPT_DNS_SERVERS = 6
OPT_REQUESTED_IP = 50
OPT_LEASE_TIME = 51
OPT_MESSAGE_TYPE = 53
OPT_SERVER_ID = 54
OPT_END = 255

DISCOVER = 1
OFFER = 2
REQUEST = 3
ACK = 5

MSG_NAMES = {DISCOVER: "DISCOVER", OFFER: "OFFER", REQUEST: "REQUEST", ACK: "ACK"}

_ZERO_V4 = as_ipv4("0.0.0.0")


class DHCPv4(Layer):
    """A BOOTP/DHCPv4 message with the common options."""

    __slots__ = (
        "op",
        "xid",
        "client_mac",
        "yiaddr",
        "msg_type",
        "server_id",
        "requested_ip",
        "subnet_mask",
        "router",
        "dns_servers",
        "lease_time",
        "payload",
    )

    def __init__(
        self,
        op: int,
        xid: int,
        client_mac: MacAddress,
        *,
        msg_type: int,
        yiaddr=_ZERO_V4,
        server_id=None,
        requested_ip=None,
        subnet_mask=None,
        router=None,
        dns_servers: Optional[list] = None,
        lease_time: int = 0,
    ):
        self.op = op
        self.xid = xid
        self.client_mac = MacAddress(client_mac)
        self.msg_type = msg_type
        self.yiaddr = as_ipv4(yiaddr)
        self.server_id = as_ipv4(server_id) if server_id is not None else None
        self.requested_ip = as_ipv4(requested_ip) if requested_ip is not None else None
        self.subnet_mask = as_ipv4(subnet_mask) if subnet_mask is not None else None
        self.router = as_ipv4(router) if router is not None else None
        self.dns_servers = [as_ipv4(s) for s in (dns_servers or [])]
        self.lease_time = lease_time
        self.payload = None
        self.wire_len = None

    @classmethod
    def discover(cls, xid: int, client_mac: MacAddress) -> "DHCPv4":
        return cls(OP_REQUEST, xid, client_mac, msg_type=DISCOVER)

    @classmethod
    def request(cls, xid: int, client_mac: MacAddress, requested_ip, server_id) -> "DHCPv4":
        return cls(OP_REQUEST, xid, client_mac, msg_type=REQUEST, requested_ip=requested_ip, server_id=server_id)

    def encode(self) -> bytes:
        fixed = bytearray(236)
        fixed[0] = self.op
        fixed[1] = 1  # htype: Ethernet
        fixed[2] = 6  # hlen
        fixed[4:8] = self.xid.to_bytes(4, "big")
        fixed[16:20] = self.yiaddr.packed
        fixed[28:34] = self.client_mac.packed
        options = bytearray(MAGIC_COOKIE)
        options += bytes([OPT_MESSAGE_TYPE, 1, self.msg_type])
        if self.subnet_mask is not None:
            options += bytes([OPT_SUBNET_MASK, 4]) + self.subnet_mask.packed
        if self.router is not None:
            options += bytes([OPT_ROUTER, 4]) + self.router.packed
        if self.dns_servers:
            body = b"".join(s.packed for s in self.dns_servers)
            options += bytes([OPT_DNS_SERVERS, len(body)]) + body
        if self.requested_ip is not None:
            options += bytes([OPT_REQUESTED_IP, 4]) + self.requested_ip.packed
        if self.lease_time:
            options += bytes([OPT_LEASE_TIME, 4]) + self.lease_time.to_bytes(4, "big")
        if self.server_id is not None:
            options += bytes([OPT_SERVER_ID, 4]) + self.server_id.packed
        options += bytes([OPT_END])
        return bytes(fixed) + bytes(options)

    @classmethod
    def decode(cls, data: bytes) -> "DHCPv4":
        if len(data) < 240 or data[236:240] != MAGIC_COOKIE:
            raise DecodeError("not a DHCPv4 message")
        op = data[0]
        xid = int.from_bytes(data[4:8], "big")
        yiaddr = as_ipv4(data[16:20])
        client_mac = MacAddress(data[28:34])
        msg_type = 0
        kwargs: dict = {}
        dns_servers: list = []
        offset = 240
        while offset < len(data):
            code = data[offset]
            if code == OPT_END:
                break
            if code == 0:  # pad
                offset += 1
                continue
            if offset + 2 > len(data):
                raise DecodeError("truncated DHCPv4 option")
            length = data[offset + 1]
            body = data[offset + 2 : offset + 2 + length]
            if len(body) < length:
                raise DecodeError("truncated DHCPv4 option body")
            if code == OPT_MESSAGE_TYPE and length == 1:
                msg_type = body[0]
            elif code == OPT_SUBNET_MASK and length == 4:
                kwargs["subnet_mask"] = as_ipv4(body)
            elif code == OPT_ROUTER and length >= 4:
                kwargs["router"] = as_ipv4(body[:4])
            elif code == OPT_DNS_SERVERS:
                dns_servers = [as_ipv4(body[i : i + 4]) for i in range(0, length - 3, 4)]
            elif code == OPT_REQUESTED_IP and length == 4:
                kwargs["requested_ip"] = as_ipv4(body)
            elif code == OPT_LEASE_TIME and length == 4:
                kwargs["lease_time"] = int.from_bytes(body, "big")
            elif code == OPT_SERVER_ID and length == 4:
                kwargs["server_id"] = as_ipv4(body)
            offset += 2 + length
        if msg_type == 0:
            raise DecodeError("DHCPv4 message lacks a message-type option")
        message = cls(op, xid, client_mac, msg_type=msg_type, yiaddr=yiaddr, dns_servers=dns_servers, **kwargs)
        message.wire_len = len(data)
        return message

    def __repr__(self) -> str:
        return f"DHCPv4({MSG_NAMES.get(self.msg_type, self.msg_type)}, {self.client_mac})"


register_udp_port(SERVER_PORT, DHCPv4.decode)
register_udp_port(CLIENT_PORT, DHCPv4.decode)
