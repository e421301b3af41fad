"""TCP segments (RFC 9293 header format).

The simulator uses a simplified reliable-stream model on top of these
segments (see ``repro.stack.sockets``); the codec here is a faithful header
implementation so that captures contain realistic SYN/SYN-ACK/data/FIN
exchanges the analysis pipeline (and the port scanner) can interpret.
"""

from __future__ import annotations

from repro.net.checksum import segment_checksum
from repro.net.packet import UNPARSED, DecodeError, Layer, decode_tcp_payload, register_ip_proto

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10


class TCP(Layer):
    """A TCP segment (no options), as a sender builds it.

    :meth:`decode` returns a :class:`DecodedTCP`, which adds the state only
    a parsed segment needs: the wire body behind its lazy payload parse and
    the inputs of its lazy checksum verdict.
    """

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "window", "_payload")

    # A segment built in memory has no wire checksum to verify.
    checksum_ok: bool | None = None

    def __init__(
        self,
        sport: int,
        dport: int,
        flags: int,
        seq: int = 0,
        ack: int = 0,
        window: int = 65535,
        payload: Layer | None = None,
    ):
        self.sport = sport
        self.dport = dport
        self.flags = flags
        self.seq = seq
        self.ack = ack
        self.window = window
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
        """The segment body's wire bytes without forcing an application parse."""
        return self._payload.encode() if self._payload is not None else b""

    @property
    def payload_wire_len(self) -> int:
        """The body size in wire bytes, without parsing or re-encoding."""
        return self._payload.wire_length() if self._payload is not None else 0

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    def with_ports(self, sport: int | None = None, dport: int | None = None) -> "TCP":
        """A copy with rewritten ports, sharing the (lazy) payload state.

        NAT-style translation must not mutate a segment in place: the link
        shares one object between every consumer, including retained
        capture records.
        """
        cls = type(self)
        clone = cls.__new__(cls)
        clone.sport = self.sport if sport is None else sport
        clone.dport = self.dport if dport is None else dport
        clone.flags = self.flags
        clone.seq = self.seq
        clone.ack = self.ack
        clone.window = self.window
        clone._payload = self._payload
        clone.wire_len = self.wire_len
        return clone

    def encode_transport(self, src, dst) -> bytes:
        segment = self.encode()
        return segment[:16] + segment_checksum(src, dst, 6, segment).to_bytes(2, "big") + segment[18:]

    def encode(self) -> bytes:
        """The segment with its checksum field zero; ``encode_transport``
        fills it in under the enclosing IP addresses."""
        return (
            self.sport.to_bytes(2, "big")
            + self.dport.to_bytes(2, "big")
            + (self.seq & 0xFFFFFFFF).to_bytes(4, "big")
            + (self.ack & 0xFFFFFFFF).to_bytes(4, "big")
            + bytes([(5 << 4), self.flags & 0x3F])
            + self.window.to_bytes(2, "big")
            + b"\x00\x00"  # checksum
            + b"\x00\x00"  # urgent pointer
            + self.payload_bytes
        )

    @classmethod
    def decode(cls, data: bytes, src=None, dst=None) -> "DecodedTCP":
        if len(data) < 20:
            raise DecodeError("TCP header too short")
        data_offset = (data[12] >> 4) * 4
        if data_offset < 20 or data_offset > len(data):
            raise DecodeError("TCP data offset inconsistent")
        segment = DecodedTCP(
            int.from_bytes(data[0:2], "big"),
            int.from_bytes(data[2:4], "big"),
            flags=data[13] & 0x3F,
            seq=int.from_bytes(data[4:8], "big"),
            ack=int.from_bytes(data[8:12], "big"),
            window=int.from_bytes(data[14:16], "big"),
        )
        segment._payload = UNPARSED
        segment._body = data[data_offset:]
        segment._cksum_ok = None
        segment._cksum_ctx = (src, dst, data) if src is not None and dst is not None else None
        segment.wire_len = len(data)
        return segment

    def __repr__(self) -> str:
        names = []
        flag_names = ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"), (FLAG_RST, "RST"), (FLAG_PSH, "PSH"))
        for bit, name in flag_names:
            if self.flags & bit:
                names.append(name)
        return f"TCP({self.sport} > {self.dport}, [{'|'.join(names)}])"


class DecodedTCP(TCP):
    """A segment parsed from wire bytes.

    The headers decode eagerly. The application payload parses from the
    kept body on first ``.payload`` access, and the checksum verifies on
    first ``checksum_ok`` access.
    """

    __slots__ = ("_body", "_cksum_ok", "_cksum_ctx")

    @TCP.payload.getter
    def payload(self) -> Layer | None:
        """The application layer, parsed from the wire body on first access."""
        parsed = self._payload
        if parsed is UNPARSED:
            parsed = decode_tcp_payload(self.sport, self.dport, self._body)
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
        decode hot path only records the raw segment and pseudo-header
        inputs; the actual fold runs when a consumer asks.
        """
        ctx = self._cksum_ctx
        if ctx is not None:
            src, dst, data = ctx
            self._cksum_ctx = None
            recomputed = segment_checksum(src, dst, 6, data[:16] + b"\x00\x00" + data[18:])
            self._cksum_ok = recomputed == int.from_bytes(data[16:18], "big")
        return self._cksum_ok

    def with_ports(self, sport: int | None = None, dport: int | None = None) -> "DecodedTCP":
        clone = super().with_ports(sport, dport)
        clone._body = self._body
        clone._cksum_ok = self._cksum_ok
        clone._cksum_ctx = None  # ports changed; the recorded inputs no longer apply
        return clone


register_ip_proto(6, TCP.decode)
