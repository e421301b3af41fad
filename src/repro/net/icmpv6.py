"""ICMPv6 (RFC 4443) and the Neighbor Discovery message set (RFC 4861).

This module carries the protocol machinery at the heart of RQ1/RQ2: Router
Solicitation/Advertisement (with Prefix Information, Source Link-Layer
Address, MTU and RDNSS options), Neighbor Solicitation/Advertisement (address
resolution and Duplicate Address Detection), and Echo (used by the testbed to
enumerate neighbors before port scans). Destination Unreachable is included
because UDP port scanning interprets Port Unreachable responses.
"""

from __future__ import annotations

import ipaddress
from typing import Optional

from repro.net.checksum import segment_checksum
from repro.net.ip6 import as_ipv6
from repro.net.mac import MacAddress
from repro.net.ip6 import intern_ipv6
from repro.net.packet import DecodeError, Layer, register_ip_proto

TYPE_DEST_UNREACHABLE = 1
TYPE_ECHO_REQUEST = 128
TYPE_ECHO_REPLY = 129
TYPE_ROUTER_SOLICIT = 133
TYPE_ROUTER_ADVERT = 134
TYPE_NEIGHBOR_SOLICIT = 135
TYPE_NEIGHBOR_ADVERT = 136

CODE_PORT_UNREACHABLE = 4

OPT_SOURCE_LLADDR = 1
OPT_TARGET_LLADDR = 2
OPT_PREFIX_INFO = 3
OPT_MTU = 5
OPT_RDNSS = 25


class NDOption:
    """Base for RFC 4861 TLV options (length counted in units of 8 bytes).

    Options are slot-only, like the layers that carry them.
    """

    __slots__ = ()

    option_type: int

    def body(self) -> bytes:
        raise NotImplementedError

    def encode(self) -> bytes:
        body = self.body()
        total = 2 + len(body)
        if total % 8:
            raise ValueError(f"ND option body misaligned ({total} bytes)")
        return bytes([self.option_type, total // 8]) + body


class SourceLinkLayerOption(NDOption):
    __slots__ = ("mac",)

    option_type = OPT_SOURCE_LLADDR

    def __init__(self, mac: MacAddress):
        self.mac = MacAddress(mac)

    def body(self) -> bytes:
        return self.mac.packed

    def __repr__(self) -> str:
        return f"SourceLL({self.mac})"


class TargetLinkLayerOption(NDOption):
    __slots__ = ("mac",)

    option_type = OPT_TARGET_LLADDR

    def __init__(self, mac: MacAddress):
        self.mac = MacAddress(mac)

    def body(self) -> bytes:
        return self.mac.packed

    def __repr__(self) -> str:
        return f"TargetLL({self.mac})"


class PrefixInfoOption(NDOption):
    """Prefix Information (RFC 4861 §4.6.2) — drives SLAAC."""

    # A dict ``__slots__`` gives ``network`` its docstring (``help``,
    # ``inspect.getdoc``).
    __slots__ = {
        "prefix": None,
        "prefix_length": None,
        "on_link": None,
        "autonomous": None,
        "valid_lifetime": None,
        "preferred_lifetime": None,
        "network": (
            "The advertised prefix as an ``IPv6Network``, computed once in the constructor. "
            "The router sends the same RA object until it is reconfigured, so every host that "
            "takes it reads this attribute instead of parsing the prefix. Bits past the prefix "
            "length are ignored, as RFC 4861 §4.6.2 asks of a receiver."
        ),
    }

    option_type = OPT_PREFIX_INFO

    def __init__(
        self,
        prefix,
        prefix_length: int = 64,
        on_link: bool = True,
        autonomous: bool = True,
        valid_lifetime: int = 86400,
        preferred_lifetime: int = 14400,
    ):
        self.prefix = as_ipv6(prefix)
        self.prefix_length = prefix_length
        self.on_link = on_link
        self.autonomous = autonomous
        self.valid_lifetime = valid_lifetime
        self.preferred_lifetime = preferred_lifetime
        self.network = ipaddress.IPv6Network((self.prefix, prefix_length), strict=False)

    def body(self) -> bytes:
        flags = (0x80 if self.on_link else 0) | (0x40 if self.autonomous else 0)
        return (
            bytes([self.prefix_length, flags])
            + self.valid_lifetime.to_bytes(4, "big")
            + self.preferred_lifetime.to_bytes(4, "big")
            + b"\x00\x00\x00\x00"
            + self.prefix.packed
        )

    def __repr__(self) -> str:
        return f"PrefixInfo({self.prefix}/{self.prefix_length}, A={self.autonomous})"


class MTUOption(NDOption):
    __slots__ = ("mtu",)

    option_type = OPT_MTU

    def __init__(self, mtu: int = 1500):
        self.mtu = mtu

    def body(self) -> bytes:
        return b"\x00\x00" + self.mtu.to_bytes(4, "big")

    def __repr__(self) -> str:
        return f"MTU({self.mtu})"


class RDNSSOption(NDOption):
    """Recursive DNS Server option (RFC 8106) — RA-based DNS configuration."""

    __slots__ = ("servers", "lifetime")

    option_type = OPT_RDNSS

    def __init__(self, servers: list, lifetime: int = 3600):
        self.servers = [as_ipv6(s) for s in servers]
        self.lifetime = lifetime

    def body(self) -> bytes:
        return b"\x00\x00" + self.lifetime.to_bytes(4, "big") + b"".join(s.packed for s in self.servers)

    def __repr__(self) -> str:
        return f"RDNSS({', '.join(str(s) for s in self.servers)})"


def _decode_options(data: bytes) -> list[NDOption]:
    options: list[NDOption] = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < 2:
            raise DecodeError("truncated ND option header")
        opt_type = data[offset]
        length = data[offset + 1] * 8
        if length == 0 or offset + length > len(data):
            raise DecodeError("ND option length invalid")
        body = data[offset + 2 : offset + length]
        if opt_type == OPT_SOURCE_LLADDR and len(body) >= 6:
            options.append(SourceLinkLayerOption(MacAddress(body[:6])))
        elif opt_type == OPT_TARGET_LLADDR and len(body) >= 6:
            options.append(TargetLinkLayerOption(MacAddress(body[:6])))
        elif opt_type == OPT_PREFIX_INFO and len(body) >= 30 and body[0] <= 128:
            options.append(
                PrefixInfoOption(
                    ipaddress.IPv6Address(body[14:30]),
                    prefix_length=body[0],
                    on_link=bool(body[1] & 0x80),
                    autonomous=bool(body[1] & 0x40),
                    valid_lifetime=int.from_bytes(body[2:6], "big"),
                    preferred_lifetime=int.from_bytes(body[6:10], "big"),
                )
            )
        elif opt_type == OPT_MTU and len(body) >= 6:
            options.append(MTUOption(int.from_bytes(body[2:6], "big")))
        elif opt_type == OPT_RDNSS and len(body) >= 6:
            lifetime = int.from_bytes(body[2:6], "big")
            raw_servers = body[6:]
            servers = [
                ipaddress.IPv6Address(raw_servers[i : i + 16]) for i in range(0, len(raw_servers) - 15, 16)
            ]
            options.append(RDNSSOption(servers, lifetime))
        offset += length
    return options


class ICMPv6(Layer):
    """A decoded ICMPv6 message.

    The NDP fields (``target``, ``options``, RA parameters) are populated
    according to ``icmp_type``; unrelated fields stay at their defaults.
    """

    __slots__ = (
        "icmp_type",
        "code",
        "identifier",
        "sequence",
        "target",
        "options",
        "router_lifetime",
        "managed",
        "other_config",
        "solicited",
        "override",
        "router_flag",
        "data",
        "payload",
        "checksum_ok",
    )

    def __init__(
        self,
        icmp_type: int,
        code: int = 0,
        *,
        identifier: int = 0,
        sequence: int = 0,
        target=None,
        options: Optional[list[NDOption]] = None,
        router_lifetime: int = 1800,
        managed: bool = False,
        other_config: bool = False,
        solicited: bool = False,
        override: bool = False,
        router_flag: bool = False,
        data: bytes = b"",
    ):
        self.icmp_type = icmp_type
        self.code = code
        self.identifier = identifier
        self.sequence = sequence
        self.target = as_ipv6(target) if target is not None else None
        self.options = options or []
        self.router_lifetime = router_lifetime
        self.managed = managed
        self.other_config = other_config
        self.solicited = solicited
        self.override = override
        self.router_flag = router_flag
        self.data = data
        self.payload = None
        self.checksum_ok: bool | None = None
        self.wire_len = None

    # -- constructors for the common messages -------------------------------

    @classmethod
    def echo_request(cls, identifier: int, sequence: int, data: bytes = b"") -> "ICMPv6":
        return cls(TYPE_ECHO_REQUEST, identifier=identifier, sequence=sequence, data=data)

    @classmethod
    def echo_reply(cls, identifier: int, sequence: int, data: bytes = b"") -> "ICMPv6":
        return cls(TYPE_ECHO_REPLY, identifier=identifier, sequence=sequence, data=data)

    @classmethod
    def router_solicit(cls, source_mac: MacAddress | None = None) -> "ICMPv6":
        options = [SourceLinkLayerOption(source_mac)] if source_mac is not None else []
        return cls(TYPE_ROUTER_SOLICIT, options=options)

    @classmethod
    def router_advert(
        cls,
        *,
        router_lifetime: int = 1800,
        managed: bool = False,
        other_config: bool = False,
        options: Optional[list[NDOption]] = None,
    ) -> "ICMPv6":
        return cls(
            TYPE_ROUTER_ADVERT,
            router_lifetime=router_lifetime,
            managed=managed,
            other_config=other_config,
            options=options or [],
        )

    @classmethod
    def neighbor_solicit(cls, target, source_mac: MacAddress | None = None) -> "ICMPv6":
        options = [SourceLinkLayerOption(source_mac)] if source_mac is not None else []
        return cls(TYPE_NEIGHBOR_SOLICIT, target=target, options=options)

    @classmethod
    def neighbor_advert(
        cls,
        target,
        target_mac: MacAddress | None = None,
        *,
        solicited: bool = True,
        override: bool = True,
        router_flag: bool = False,
    ) -> "ICMPv6":
        options = [TargetLinkLayerOption(target_mac)] if target_mac is not None else []
        return cls(
            TYPE_NEIGHBOR_ADVERT,
            target=target,
            options=options,
            solicited=solicited,
            override=override,
            router_flag=router_flag,
        )

    @classmethod
    def port_unreachable(cls, original_datagram: bytes) -> "ICMPv6":
        return cls(TYPE_DEST_UNREACHABLE, CODE_PORT_UNREACHABLE, data=original_datagram[:1232])

    # -- helpers -------------------------------------------------------------

    def option(self, option_type: type) -> Optional[NDOption]:
        for opt in self.options:
            if isinstance(opt, option_type):
                return opt
        return None

    def prefixes(self) -> list[PrefixInfoOption]:
        return [o for o in self.options if isinstance(o, PrefixInfoOption)]

    # -- codec ---------------------------------------------------------------

    def _message_body(self) -> bytes:
        t = self.icmp_type
        options = b"".join(opt.encode() for opt in self.options)
        if t in (TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY):
            return self.identifier.to_bytes(2, "big") + self.sequence.to_bytes(2, "big") + self.data
        if t == TYPE_ROUTER_SOLICIT:
            return b"\x00\x00\x00\x00" + options
        if t == TYPE_ROUTER_ADVERT:
            flags = (0x80 if self.managed else 0) | (0x40 if self.other_config else 0)
            return (
                bytes([64, flags])
                + self.router_lifetime.to_bytes(2, "big")
                + b"\x00" * 8  # reachable + retrans timers
                + options
            )
        if t == TYPE_NEIGHBOR_SOLICIT:
            if self.target is None:
                raise ValueError("NS requires a target")
            return b"\x00\x00\x00\x00" + self.target.packed + options
        if t == TYPE_NEIGHBOR_ADVERT:
            if self.target is None:
                raise ValueError("NA requires a target")
            flags = (
                (0x80 if self.router_flag else 0)
                | (0x40 if self.solicited else 0)
                | (0x20 if self.override else 0)
            )
            return bytes([flags, 0, 0, 0]) + self.target.packed + options
        if t == TYPE_DEST_UNREACHABLE:
            return b"\x00\x00\x00\x00" + self.data
        return self.data

    def encode_transport(self, src, dst) -> bytes:
        message = self.encode()
        return message[:2] + segment_checksum(src, dst, 58, message).to_bytes(2, "big") + message[4:]

    def encode(self) -> bytes:
        """The message with its checksum field zero; ``encode_transport``
        fills it in under the enclosing IPv6 addresses."""
        return bytes([self.icmp_type, self.code]) + b"\x00\x00" + self._message_body()

    @classmethod
    def decode(cls, data: bytes, src=None, dst=None) -> "ICMPv6":
        if len(data) < 4:
            raise DecodeError("ICMPv6 message too short")
        icmp_type, code = data[0], data[1]
        body = data[4:]
        message = cls(icmp_type, code)
        if icmp_type in (TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY):
            if len(body) < 4:
                raise DecodeError("ICMPv6 echo too short")
            message.identifier = int.from_bytes(body[0:2], "big")
            message.sequence = int.from_bytes(body[2:4], "big")
            message.data = body[4:]
        elif icmp_type == TYPE_ROUTER_SOLICIT:
            if len(body) < 4:
                raise DecodeError("RS too short")
            message.options = _decode_options(body[4:])
        elif icmp_type == TYPE_ROUTER_ADVERT:
            if len(body) < 12:
                raise DecodeError("RA too short")
            message.managed = bool(body[1] & 0x80)
            message.other_config = bool(body[1] & 0x40)
            message.router_lifetime = int.from_bytes(body[2:4], "big")
            message.options = _decode_options(body[12:])
        elif icmp_type in (TYPE_NEIGHBOR_SOLICIT, TYPE_NEIGHBOR_ADVERT):
            if len(body) < 20:
                raise DecodeError("NS/NA too short")
            message.target = intern_ipv6(body[4:20])
            message.options = _decode_options(body[20:])
            if icmp_type == TYPE_NEIGHBOR_ADVERT:
                message.router_flag = bool(body[0] & 0x80)
                message.solicited = bool(body[0] & 0x40)
                message.override = bool(body[0] & 0x20)
        elif icmp_type == TYPE_DEST_UNREACHABLE:
            message.data = body[4:] if len(body) >= 4 else b""
        else:
            message.data = body
        if src is not None and dst is not None:
            recomputed = segment_checksum(src, dst, 58, data[:2] + b"\x00\x00" + data[4:])
            message.checksum_ok = recomputed == int.from_bytes(data[2:4], "big")
        message.wire_len = len(data)
        return message

    def __repr__(self) -> str:
        names = {
            TYPE_DEST_UNREACHABLE: "DestUnreach",
            TYPE_ECHO_REQUEST: "EchoReq",
            TYPE_ECHO_REPLY: "EchoRep",
            TYPE_ROUTER_SOLICIT: "RS",
            TYPE_ROUTER_ADVERT: "RA",
            TYPE_NEIGHBOR_SOLICIT: "NS",
            TYPE_NEIGHBOR_ADVERT: "NA",
        }
        label = names.get(self.icmp_type, f"type={self.icmp_type}")
        if self.target is not None:
            return f"ICMPv6({label}, target={self.target})"
        return f"ICMPv6({label})"


register_ip_proto(58, ICMPv6.decode)
