"""The tiny layering framework shared by every codec in ``repro.net``.

A packet is a chain of ``Layer`` objects (``Ethernet -> IPv6 -> UDP -> DNS``).
Each network layer encodes itself plus its payload; transport layers take the
enclosing addresses so they can compute pseudo-header checksums. Decoding
walks central dispatch registries (ethertype, IP protocol number, UDP/TCP
port) that each protocol module populates at import time.

Decode-once invariants (see DESIGN.md "Performance architecture"):

- every decoder stamps ``wire_len`` — the number of wire bytes the layer
  (including its payload) occupied — so consumers never re-encode a decoded
  layer just to learn its size;
- transport layers (UDP/TCP) decode their headers eagerly but defer the
  application payload parse until first ``.payload`` access, using the
  ``UNPARSED`` sentinel below.
"""

from __future__ import annotations

from typing import Callable, Optional

# Sentinel stored by UDP/TCP decode in place of a payload that has not been
# parsed yet; the raw body bytes are kept alongside and parsed on first use.
UNPARSED = object()

# Decode dispatch registries. Keys: ethertype; IP next-header/protocol
# number; well-known UDP/TCP port. Values: callables taking the raw payload
# bytes (and, for transports, the IP source/destination) and returning a
# parsed Layer.
ETHERTYPE_DECODERS: dict[int, Callable] = {}
IP_PROTO_DECODERS: dict[int, Callable] = {}
UDP_PORT_DECODERS: dict[int, Callable] = {}
TCP_PORT_DECODERS: dict[int, Callable] = {}


class DecodeError(ValueError):
    """Raised when bytes cannot be parsed as the expected protocol."""


class Layer:
    """Base class for every protocol layer.

    Every layer is slot-only, this base included: a study keeps each frame
    it captured, one object per header, so a per-instance ``__dict__`` or
    weakref pointer would cost every one of them (DESIGN.md §8).
    """

    # Number of wire bytes this layer (with payload) occupied when it was
    # decoded; None for layers built in memory rather than parsed. Every
    # constructor, and every ``__new__``-based copy, sets it.
    __slots__ = ("wire_len",)

    payload: "Optional[Layer]" = None

    def wire_length(self) -> int:
        """The layer's size in wire bytes, without re-encoding when known."""
        if self.wire_len is not None:
            return self.wire_len
        return len(self.encode())

    def layers(self) -> "list[Layer]":
        """The chain of layers starting at this one."""
        chain: list[Layer] = []
        layer: Optional[Layer] = self
        while layer is not None:
            chain.append(layer)
            layer = layer.payload
        return chain

    def find(self, layer_type: type) -> "Optional[Layer]":
        """The first layer of ``layer_type`` in the chain, or None."""
        for layer in self.layers():
            if isinstance(layer, layer_type):
                return layer
        return None

    def __truediv__(self, other: "Layer") -> "Layer":
        """Scapy-style stacking: ``Ethernet(...) / IPv6(...) / UDP(...)``."""
        innermost = self
        while innermost.payload is not None:
            innermost = innermost.payload
        innermost.payload = other
        return self


class Raw(Layer):
    """An opaque payload."""

    __slots__ = ("data", "payload")

    def __init__(self, data: bytes = b""):
        self.data = data
        self.payload = None

    @property
    def wire_len(self) -> int:
        """Always known: the payload's length, read off its bytes rather than
        kept, which would cost an int object per payload over 256 bytes."""
        return len(self.data)

    def encode(self) -> bytes:
        return self.data

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Raw) and other.data == self.data

    def __repr__(self) -> str:
        return f"Raw({len(self.data)} bytes)"


def register_ethertype(ethertype: int, decoder: Callable) -> None:
    ETHERTYPE_DECODERS[ethertype] = decoder


def register_ip_proto(proto: int, decoder: Callable) -> None:
    IP_PROTO_DECODERS[proto] = decoder


def register_udp_port(port: int, decoder: Callable) -> None:
    UDP_PORT_DECODERS[port] = decoder


def register_tcp_port(port: int, decoder: Callable) -> None:
    TCP_PORT_DECODERS[port] = decoder


def has_tcp_decoder(sport: int, dport: int) -> bool:
    """True when either port has a registered application decoder."""
    return sport in TCP_PORT_DECODERS or dport in TCP_PORT_DECODERS


def decode_udp_payload(sport: int, dport: int, data: bytes) -> Layer:
    """Best-effort parse of a UDP payload by well-known port."""
    for port in (dport, sport):
        decoder = UDP_PORT_DECODERS.get(port)
        if decoder is not None:
            try:
                parsed = decoder(data)
                parsed.wire_len = len(data)
                return parsed
            except DecodeError:
                break
    return Raw(data)


def decode_tcp_payload(sport: int, dport: int, data: bytes) -> Layer:
    """Best-effort parse of a TCP segment payload by well-known port."""
    if not data:
        return Raw(b"")
    for port in (dport, sport):
        decoder = TCP_PORT_DECODERS.get(port)
        if decoder is not None:
            try:
                parsed = decoder(data)
                parsed.wire_len = len(data)
                return parsed
            except DecodeError:
                break
    return Raw(data)
