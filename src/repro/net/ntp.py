"""A minimal SNTP (RFC 4330) codec.

Several devices in the study contact NTP over IPv6 with hardcoded server
addresses — the mechanism behind gateways that transmit Internet data with no
AAAA responses (§5.1.2) and the "support party" NTP destinations of Fig. 5.
"""

from __future__ import annotations

from repro.net.packet import DecodeError, Layer, register_udp_port

PORT = 123

MODE_CLIENT = 3
MODE_SERVER = 4


class NTP(Layer):
    """An SNTP packet (header fields only; timestamps as raw 64-bit values)."""

    __slots__ = ("mode", "version", "stratum", "transmit_timestamp", "payload")

    def __init__(self, mode: int = MODE_CLIENT, version: int = 4, stratum: int = 0, transmit_timestamp: int = 0):
        self.mode = mode
        self.version = version
        self.stratum = stratum
        self.transmit_timestamp = transmit_timestamp
        self.payload = None
        self.wire_len = None

    def encode(self) -> bytes:
        first = (0 << 6) | (self.version << 3) | self.mode
        out = bytearray(48)
        out[0] = first
        out[1] = self.stratum
        out[40:48] = self.transmit_timestamp.to_bytes(8, "big")
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "NTP":
        if len(data) < 48:
            raise DecodeError("NTP packet too short")
        message = cls(
            mode=data[0] & 0x07,
            version=(data[0] >> 3) & 0x07,
            stratum=data[1],
            transmit_timestamp=int.from_bytes(data[40:48], "big"),
        )
        message.wire_len = len(data)
        return message

    def __repr__(self) -> str:
        kind = {MODE_CLIENT: "client", MODE_SERVER: "server"}.get(self.mode, self.mode)
        return f"NTP({kind}, v{self.version})"


register_udp_port(PORT, NTP.decode)
