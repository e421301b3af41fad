"""A live capture reads as the list of records it stands for, at a fraction of the cost.

``LiveCapture`` keeps timestamps and frames in two columns and builds a
``PcapRecord`` view on every read, so each test here compares it with the list
of records a tap would have appended for the same ``(timestamp, frame)`` pairs.
"""

import pickle
import tracemalloc

from repro.net import DNS, Ethernet, IPv4, IPv6, MacAddress, Raw, TCP, UDP
from repro.net.dns import TYPE_AAAA
from repro.net.pcap import LiveCapture, PcapRecord, dump_records, load_records
from repro.net.tcp import FLAG_ACK, FLAG_PSH, FLAG_SYN
from tests.pipeline.test_goldens import pcap_sha256

HOST = MacAddress("02:00:00:00:00:02")
ROUTER = MacAddress("02:00:00:00:00:01")

# Doubles that a decimal round trip or a float32 would not keep exactly.
STAMPS = [0.0, 0.1 + 0.2, 1e-7, 1234.5678901234567, 120.00000000000001, 1399.9999999999998]


def _frames() -> list[Ethernet]:
    lookup = UDP(40000, 53, DNS.query(7, "cdn.example.com", TYPE_AAAA))
    data = TCP(40001, 443, FLAG_ACK | FLAG_PSH, payload=Raw(b"\x16" * 300))
    return [
        Ethernet(ROUTER, HOST, 0x86DD, IPv6("2001:db8::2", "2001:db8::53", 17, lookup)),
        Ethernet(ROUTER, HOST, 0x0800, IPv4("192.168.1.2", "93.184.216.34", 6, TCP(40001, 443, FLAG_SYN))),
        Ethernet(HOST, ROUTER, 0x0800, IPv4("93.184.216.34", "192.168.1.2", 6, TCP(443, 40001, FLAG_ACK))),
        Ethernet(ROUTER, HOST, 0x0800, IPv4("192.168.1.2", "93.184.216.34", 6, data)),
        Ethernet(ROUTER, HOST, 0x86DD, IPv6("2001:db8::2", "2001:db8::53", 17, lookup)),
        Ethernet(ROUTER, HOST, 0x86DD, IPv6("fe80::2", "ff02::1", 59)),
    ]


def _both() -> tuple[LiveCapture, list[PcapRecord]]:
    """A live capture and the record list, from the same pairs."""
    capture = LiveCapture()
    records = []
    for timestamp, frame in zip(STAMPS, _frames()):
        capture.tap(timestamp, frame)
        records.append(PcapRecord(timestamp, frame=frame))
    return capture, records


def test_reads_as_the_record_list():
    capture, records = _both()
    assert len(capture) == len(records) == len(STAMPS)
    assert list(capture) == records
    assert capture[0] == records[0]
    assert capture[-1] == records[-1]
    assert capture[1:4] == records[1:4]
    assert capture[::-2] == records[::-2]
    assert list(reversed(capture)) == records[::-1]
    assert bool(capture) and not LiveCapture()


def test_equality_both_ways():
    capture, records = _both()
    other, _ = _both()
    assert capture == records and records == capture
    assert capture == other
    assert capture != records[:-1] and records[:-1] != capture
    assert capture != records[::-1]
    assert LiveCapture() == []


def test_views_hold_the_frame_and_encode_on_read():
    frames = _frames()
    capture = LiveCapture()
    for timestamp, frame in zip(STAMPS, frames):
        capture.tap(timestamp, frame)
    for record, frame in zip(capture, frames):
        assert record.frame is frame
        assert record.data == frame.encode()
    assert capture[2].frame is frames[2]


def test_timestamps_read_back_as_the_identical_doubles():
    capture, _ = _both()
    assert [record.timestamp.hex() for record in capture] == [stamp.hex() for stamp in STAMPS]
    assert capture[3].timestamp.hex() == STAMPS[3].hex()


def test_same_pcap_bytes():
    capture, records = _both()
    assert pcap_sha256(capture) == pcap_sha256(records)
    reloaded = load_records(dump_records(capture))
    assert [record.data for record in reloaded] == [frame.encode() for frame in _frames()]


def test_pickles_as_the_record_list():
    capture, records = _both()
    restored = pickle.loads(pickle.dumps(capture))
    assert type(restored) is list
    assert restored == pickle.loads(pickle.dumps(records)) == records
    # Each record still pickles as (timestamp, data): the frame stays behind.
    assert all(record.frame is None for record in restored)
    assert [record.timestamp for record in restored] == STAMPS


def test_a_captured_frame_costs_at_most_32_bytes():
    """A ``PcapRecord`` per frame would cost 64 bytes plus its list slot."""
    frames = 100_000
    frame = _frames()[0]
    stamps = [n * 0.0137 for n in range(frames)]
    capture = LiveCapture()
    tracemalloc.start()
    try:
        for stamp in stamps:
            capture.tap(stamp, frame)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capture) == frames
    assert allocated <= 32 * frames, f"{allocated / frames:.1f} bytes a frame"
