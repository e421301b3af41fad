"""The Internet checksum (RFC 1071) and transport pseudo-headers.

The checksum uses the classic number-theoretic shortcut: because
``2**16 ≡ 1 (mod 2**16 - 1)``, the one's-complement sum of the 16-bit words
of a buffer equals the buffer interpreted as one big integer, reduced
mod 65535. ``int.from_bytes`` runs at C speed, so large payloads checksum in
microseconds instead of tens of milliseconds.
"""

from __future__ import annotations

import ipaddress


def internet_checksum(data: bytes) -> int:
    """One's-complement 16-bit checksum over ``data`` (odd lengths padded)."""
    if len(data) % 2:
        data += b"\x00"
    total = int.from_bytes(data, "big")
    if total == 0:
        return 0xFFFF
    folded = total % 0xFFFF
    if folded == 0:
        folded = 0xFFFF
    return (~folded) & 0xFFFF


def ipv4_pseudo_header(src: ipaddress.IPv4Address, dst: ipaddress.IPv4Address, proto: int, length: int) -> bytes:
    """The IPv4 pseudo-header prepended for TCP/UDP checksums (RFC 793/768)."""
    return src.packed + dst.packed + bytes([0, proto]) + length.to_bytes(2, "big")


def ipv6_pseudo_header(src: ipaddress.IPv6Address, dst: ipaddress.IPv6Address, next_header: int, length: int) -> bytes:
    """The IPv6 pseudo-header used by UDP, TCP and ICMPv6 (RFC 8200 §8.1)."""
    return src.packed + dst.packed + length.to_bytes(4, "big") + b"\x00\x00\x00" + bytes([next_header])


def transport_checksum(pseudo: bytes, segment: bytes) -> int:
    """Checksum of a transport segment under its pseudo-header.

    Per RFC 768, a computed UDP checksum of zero is transmitted as 0xFFFF.
    """
    value = internet_checksum(pseudo + segment)
    return value or 0xFFFF


def segment_checksum(src, dst, proto: int, segment: bytes) -> int:
    """The checksum of a TCP, UDP or ICMPv6 ``segment`` whose checksum field
    is zero, under the pseudo-header of the ``src``/``dst`` address family.

    Encoders write it into the checksum field; decoders compare it with the
    received one, over the received bytes with that field zeroed.
    """
    if isinstance(src, ipaddress.IPv6Address):
        pseudo = ipv6_pseudo_header(src, dst, proto, len(segment))
    else:
        pseudo = ipv4_pseudo_header(src, dst, proto, len(segment))
    return transport_checksum(pseudo, segment)
