"""A per-simulation decode cache for Ethernet frames.

The testbed LAN delivers every multicast/broadcast frame to every NIC plus
the promiscuous router, and the capture tap sees it too — historically each
receiver parsed the raw bytes from scratch, so one RA flooded to 93 devices
cost ~95 ``Ethernet.decode`` calls. ``FrameCache`` keys decoded frames on
the immutable frame bytes so each distinct frame is parsed exactly once and
the resulting layer chain is shared by every consumer.

Sharing is safe because decoded frames are treated as immutable everywhere:
receivers that need to alter a packet (the router forwarding with a lower
hop limit, for instance) build a fresh layer object instead of mutating the
received one. The cache is deterministic — a decoded frame is a pure
function of its bytes — so serial and parallel fleet runs stay byte-
identical.
"""

from __future__ import annotations

from typing import Optional

from repro.net.ethernet import Ethernet
from repro.net.packet import DecodeError

_MISSING = object()


class FrameCache:
    """Decode-once cache: frame bytes -> decoded :class:`Ethernet` (or None).

    Undecodable frames cache as ``None`` so repeated garbage is rejected
    without re-raising per consumer. The cache is unbounded: for a study run
    it costs one dict entry per captured frame, the same order of retention
    as the capture itself.
    """

    __slots__ = ("_frames", "hits", "misses", "decode_errors", "primes", "prime_hits")

    def __init__(self):
        self._frames: dict[bytes, Optional[Ethernet]] = {}
        self.hits = 0
        self.misses = 0
        self.decode_errors = 0
        self.primes = 0
        self.prime_hits = 0

    def __len__(self) -> int:
        return len(self._frames)

    @staticmethod
    def _ratio(part: int, total: int) -> float:
        """Zero-safe ratio: a cache that has observed nothing has rate 0.0,
        never a ZeroDivisionError (rates are read unconditionally by the
        benchmark harness and reports, including on idle links)."""
        return part / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        return self._ratio(self.hits, self.hits + self.misses)

    @property
    def encode_count(self) -> int:
        """Frames that entered the cache from the transmit side (every
        ``prime`` call, whether or not the bytes were already cached)."""
        return self.primes + self.prime_hits

    @property
    def decode_count(self) -> int:
        """Frames that actually paid an ``Ethernet.decode`` parse."""
        return self.misses

    @property
    def prime_rate(self) -> float:
        """Fraction of transmitted frames whose structured object was newly
        installed by the sender (the rest were byte-identical repeats)."""
        return self._ratio(self.primes, self.primes + self.prime_hits)

    def prime(self, data: bytes, frame: Ethernet) -> Ethernet:
        """Install the sender's structured ``frame`` for ``data`` before any
        receiver asks to decode it.

        Returns the cached object for those bytes: the freshly primed frame,
        or the already-cached one when a byte-identical frame was seen before
        (retransmits, periodic RAs) — so every consumer shares one object per
        distinct content, exactly as ``decode`` guarantees.
        """
        cached = self._frames.get(data, _MISSING)
        if cached is not _MISSING:
            self.prime_hits += 1
            return cached
        self.primes += 1
        self._frames[data] = frame
        return frame

    def decode(self, data: bytes) -> Optional[Ethernet]:
        """The decoded frame for ``data``, parsing at most once per content."""
        frame = self._frames.get(data, _MISSING)
        if frame is not _MISSING:
            self.hits += 1
            return frame
        self.misses += 1
        try:
            frame = Ethernet.decode(data)
        except DecodeError:
            frame = None
            self.decode_errors += 1
        self._frames[data] = frame
        return frame

    def clear(self) -> None:
        self._frames.clear()

    def __repr__(self) -> str:
        return (
            f"FrameCache(entries={len(self._frames)}, hits={self.hits}, "
            f"misses={self.misses}, errors={self.decode_errors})"
        )
