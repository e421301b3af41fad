"""A minimal TLS ClientHello codec.

The paper extracts destination domains from "DNS and TLS handshake data"
(§4.3): devices that skip DNS (hardcoded IPs) still reveal their destination
through the Server Name Indication extension. We implement enough of TLS 1.2+
record/handshake framing to emit and parse ClientHello messages with SNI.
"""

from __future__ import annotations

from repro.net.packet import DecodeError, Layer, register_tcp_port

RECORD_HANDSHAKE = 22
HANDSHAKE_CLIENT_HELLO = 1
EXT_SERVER_NAME = 0

_DEFAULT_CIPHERS = (0x1301, 0x1302, 0xC02F, 0xC030)  # TLS 1.3 + ECDHE-RSA-GCM


class TLSClientHello(Layer):
    """A TLS ClientHello carrying an SNI extension."""

    __slots__ = ("server_name", "random", "cipher_suites", "payload")

    def __init__(self, server_name: str, random: bytes = b"\x00" * 32, cipher_suites=_DEFAULT_CIPHERS):
        if len(random) != 32:
            raise ValueError("ClientHello random must be 32 bytes")
        self.server_name = server_name.rstrip(".").lower()
        self.random = random
        self.cipher_suites = tuple(cipher_suites)
        self.payload = None
        self.wire_len = None

    def encode(self) -> bytes:
        name = self.server_name.encode("ascii")
        sni_entry = b"\x00" + len(name).to_bytes(2, "big") + name
        sni_list = len(sni_entry).to_bytes(2, "big") + sni_entry
        extension = EXT_SERVER_NAME.to_bytes(2, "big") + len(sni_list).to_bytes(2, "big") + sni_list
        extensions = len(extension).to_bytes(2, "big") + extension

        ciphers = b"".join(c.to_bytes(2, "big") for c in self.cipher_suites)
        body = (
            b"\x03\x03"  # legacy_version TLS 1.2
            + self.random
            + b"\x00"  # empty session id
            + len(ciphers).to_bytes(2, "big")
            + ciphers
            + b"\x01\x00"  # compression: null only
            + extensions
        )
        handshake = bytes([HANDSHAKE_CLIENT_HELLO]) + len(body).to_bytes(3, "big") + body
        record = bytes([RECORD_HANDSHAKE]) + b"\x03\x03" + len(handshake).to_bytes(2, "big") + handshake
        return record

    @classmethod
    def decode(cls, data: bytes) -> "TLSClientHello":
        if len(data) < 5 or data[0] != RECORD_HANDSHAKE:
            raise DecodeError("not a TLS handshake record")
        record_len = int.from_bytes(data[3:5], "big")
        handshake = data[5 : 5 + record_len]
        if len(handshake) < 4 or handshake[0] != HANDSHAKE_CLIENT_HELLO:
            raise DecodeError("not a ClientHello")
        body_len = int.from_bytes(handshake[1:4], "big")
        body = handshake[4 : 4 + body_len]
        if len(body) < 35:
            raise DecodeError("ClientHello body too short")
        random = body[2:34]
        offset = 34
        session_id_len = body[offset]
        offset += 1 + session_id_len
        if offset + 2 > len(body):
            raise DecodeError("ClientHello truncated at cipher suites")
        ciphers_len = int.from_bytes(body[offset : offset + 2], "big")
        offset += 2
        ciphers = tuple(
            int.from_bytes(body[offset + i : offset + i + 2], "big") for i in range(0, ciphers_len, 2)
        )
        offset += ciphers_len
        if offset >= len(body):
            raise DecodeError("ClientHello truncated at compression methods")
        compression_len = body[offset]
        offset += 1 + compression_len
        if offset + 2 > len(body):
            raise DecodeError("ClientHello has no extensions")
        extensions_len = int.from_bytes(body[offset : offset + 2], "big")
        offset += 2
        end = offset + extensions_len
        server_name = None
        while offset + 4 <= end:
            ext_type = int.from_bytes(body[offset : offset + 2], "big")
            ext_len = int.from_bytes(body[offset + 2 : offset + 4], "big")
            ext_body = body[offset + 4 : offset + 4 + ext_len]
            if ext_type == EXT_SERVER_NAME and len(ext_body) >= 5:
                name_len = int.from_bytes(ext_body[3:5], "big")
                server_name = ext_body[5 : 5 + name_len].decode("ascii", errors="replace")
            offset += 4 + ext_len
        if server_name is None:
            raise DecodeError("ClientHello lacks SNI")
        hello = cls(server_name, random, ciphers)
        hello.wire_len = len(data)
        return hello

    def __repr__(self) -> str:
        return f"TLSClientHello(sni={self.server_name!r})"


register_tcp_port(443, TLSClientHello.decode)
register_tcp_port(8443, TLSClientHello.decode)
