"""Classic libpcap file I/O (the testbed's tcpdump-equivalent).

Captures written by :class:`PcapWriter` use the standard magic and
LINKTYPE_ETHERNET, so they open in tcpdump/tshark/wireshark unchanged. The
analysis pipeline can consume either live in-memory captures or pcap files
read back through :class:`PcapReader`.
"""

from __future__ import annotations

import io
import operator
import struct
from array import array
from collections.abc import Sequence
from itertools import repeat
from typing import BinaryIO, Iterable, Iterator, Optional

MAGIC = 0xA1B2C3D4
MAGIC_SWAPPED = 0xD4C3B2A1
VERSION_MAJOR = 2
VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


class PcapRecord:
    """One captured frame: a timestamp (seconds) and the frame.

    A record of a live capture (:class:`LiveCapture`) holds the sender's
    structured ``frame`` and no bytes: ``data`` encodes it on every read and
    never keeps the result, so a study's captures hold no encoded frames,
    even after an export. Records read from pcap files hold their bytes and
    no frame. Equality compares timestamp and bytes, and a record pickles as
    ``(timestamp, data)``: the frame is dropped, and the receiving side
    decodes on demand.
    """

    __slots__ = ("timestamp", "_data", "frame")

    def __init__(self, timestamp: float, data: Optional[bytes] = None, frame=None):
        if data is None and frame is None:
            raise ValueError("a PcapRecord needs its bytes or its frame")
        self.timestamp = timestamp
        self._data = data
        self.frame = frame

    @property
    def data(self) -> bytes:
        return self._data if self._data is not None else self.frame.encode()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PcapRecord):
            return NotImplemented
        return self.timestamp == other.timestamp and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.timestamp, self.data))

    def __reduce__(self):
        return (PcapRecord, (self.timestamp, self.data))

    def __repr__(self) -> str:
        return f"PcapRecord(timestamp={self.timestamp!r}, data={self.data!r})"


class LiveCapture(Sequence):
    """A capture being taken, kept as two columns: timestamps and frames.

    The link's tap (:meth:`tap`) appends each frame's timestamp to an
    ``array('d')`` and the frame itself to a list, so a captured frame costs
    one list slot and eight bytes, with no record object and no boxed float.
    Reads build :class:`PcapRecord` views, ``PcapRecord(timestamp,
    frame=frame)``, and keep none of them, so the capture reads as the list
    of records it stands for: indexing, slicing (a list), iteration, ``len``
    and equality with such a list. It pickles as that list, so each record
    still pickles as ``(timestamp, data)``.
    """

    __slots__ = ("_times", "_frames")

    def __init__(self):
        self._times = array("d")
        self._frames: list = []

    def tap(self, timestamp: float, frame) -> None:
        """The link tap: keep ``frame``, sent at ``timestamp``."""
        self._times.append(timestamp)
        self._frames.append(frame)

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[PcapRecord]:
        return map(PcapRecord, self._times, repeat(None), self._frames)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(PcapRecord, self._times[index], repeat(None), self._frames[index]))
        return PcapRecord(self._times[index], None, self._frames[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (LiveCapture, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __reduce__(self):
        return (list, (list(self),))


class PcapWriter:
    """Writes classic pcap with microsecond timestamps."""

    def __init__(self, stream: BinaryIO, snaplen: int = 65535):
        self._stream = stream
        self._stream.write(
            _GLOBAL_HEADER.pack(MAGIC, VERSION_MAJOR, VERSION_MINOR, 0, 0, snaplen, LINKTYPE_ETHERNET)
        )

    def write(self, timestamp: float, data: bytes) -> None:
        seconds = int(timestamp)
        micros = int(round((timestamp - seconds) * 1_000_000))
        if micros == 1_000_000:
            seconds, micros = seconds + 1, 0
        self._stream.write(_RECORD_HEADER.pack(seconds, micros, len(data), len(data)))
        self._stream.write(data)

    def write_all(self, records: Iterable[PcapRecord]) -> None:
        for record in records:
            self.write(record.timestamp, record.data)


class PcapReader:
    """Reads classic pcap in either byte order."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        header = stream.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise ValueError("truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == MAGIC:
            self._order = "<"
        elif magic == MAGIC_SWAPPED:
            self._order = ">"
        else:
            raise ValueError(f"not a pcap file (magic=0x{magic:08x})")
        fields = struct.unpack(self._order + "IHHiIII", header)
        self.linktype = fields[6]

    def __iter__(self) -> Iterator[PcapRecord]:
        record_header = struct.Struct(self._order + "IIII")
        while True:
            header = self._stream.read(record_header.size)
            if not header:
                return
            if len(header) < record_header.size:
                raise ValueError("truncated pcap record header")
            seconds, micros, caplen, _origlen = record_header.unpack(header)
            data = self._stream.read(caplen)
            if len(data) < caplen:
                raise ValueError("truncated pcap record body")
            yield PcapRecord(seconds + micros / 1_000_000, data)


def dump_records(records: Iterable[PcapRecord]) -> bytes:
    """Serialize records to pcap bytes in memory."""
    buffer = io.BytesIO()
    PcapWriter(buffer).write_all(records)
    return buffer.getvalue()


def load_records(data: bytes) -> list[PcapRecord]:
    """Parse pcap bytes into records."""
    return list(PcapReader(io.BytesIO(data)))
