"""The Internet checksum (RFC 1071) and transport pseudo-headers.

The checksum uses the classic number-theoretic shortcut: because
``2**16 ≡ 1 (mod 2**16 - 1)``, the one's-complement sum of the 16-bit words
of a buffer equals the buffer interpreted as one big integer, reduced
mod 65535. ``int.from_bytes`` runs at C speed, so large payloads checksum in
microseconds instead of tens of milliseconds.
"""

from __future__ import annotations

import functools
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


# A flow's (src, dst, proto) triple repeats for every segment while only the
# length varies, and ``ipaddress`` recomputes ``.packed`` on each access —
# cache the fixed prefix per triple. Addresses are interned by the decoders,
# so the key space stays small.


@functools.lru_cache(maxsize=1 << 13)
def _v4_pseudo_prefix(src: ipaddress.IPv4Address, dst: ipaddress.IPv4Address, proto: int) -> bytes:
    return src.packed + dst.packed + bytes([0, proto])


@functools.lru_cache(maxsize=1 << 13)
def _v6_pseudo_prefix(src: ipaddress.IPv6Address, dst: ipaddress.IPv6Address) -> bytes:
    return src.packed + dst.packed


def ipv4_pseudo_header(src: ipaddress.IPv4Address, dst: ipaddress.IPv4Address, proto: int, length: int) -> bytes:
    """The IPv4 pseudo-header prepended for TCP/UDP checksums (RFC 793/768)."""
    return _v4_pseudo_prefix(src, dst, proto) + length.to_bytes(2, "big")


def ipv6_pseudo_header(src: ipaddress.IPv6Address, dst: ipaddress.IPv6Address, next_header: int, length: int) -> bytes:
    """The IPv6 pseudo-header used by UDP, TCP and ICMPv6 (RFC 8200 §8.1)."""
    return _v6_pseudo_prefix(src, dst) + length.to_bytes(4, "big") + b"\x00\x00\x00" + bytes([next_header])


def transport_checksum(pseudo: bytes, segment: bytes) -> int:
    """Checksum of a transport segment under its pseudo-header.

    Per RFC 768, a computed UDP checksum of zero is transmitted as 0xFFFF.
    """
    value = internet_checksum(pseudo + segment)
    return value or 0xFFFF


# -- incremental (template) checksums ----------------------------------------
#
# The template encoders assemble a packet's checksum from cached partial
# sums instead of concatenating pseudo-header + segment and re-summing the
# whole buffer. Because the word sum is additive mod 0xFFFF over even-length
# pieces, sum(pseudo + segment) ≡ pseudo_sum + segment_sum, so the fixed
# (src, dst, proto) contribution is computed once per flow and only the
# varying parts (length words, ports, payload) are folded in per packet.
#
# ``fold_checksum`` matches ``internet_checksum`` exactly for every buffer
# whose big-integer value is non-zero; the all-zero-buffer special case is
# unreachable here because every covered region contains a non-zero protocol
# or version word.


def partial_sum(data: bytes) -> int:
    """The 16-bit word sum of ``data`` folded mod 0xFFFF (odd lengths padded)."""
    if not data:
        return 0  # pure-ACK TCP segments and empty UDP bodies
    if len(data) % 2:
        data += b"\x00"
    return int.from_bytes(data, "big") % 0xFFFF


def fold_checksum(total: int) -> int:
    """Fold an accumulated word sum into a final Internet checksum."""
    folded = total % 0xFFFF
    if folded == 0:
        folded = 0xFFFF
    return (~folded) & 0xFFFF


@functools.lru_cache(maxsize=1 << 13)
def pseudo_sum_v6(src: ipaddress.IPv6Address, dst: ipaddress.IPv6Address, next_header: int) -> int:
    """The fixed word-sum contribution of an IPv6 pseudo-header (addresses
    plus next-header); the length words are added per packet."""
    return int.from_bytes(src.packed + dst.packed, "big") % 0xFFFF + next_header


@functools.lru_cache(maxsize=1 << 13)
def pseudo_sum_v4(src: ipaddress.IPv4Address, dst: ipaddress.IPv4Address, proto: int) -> int:
    """The fixed word-sum contribution of an IPv4 pseudo-header."""
    return int.from_bytes(src.packed + dst.packed, "big") % 0xFFFF + proto
