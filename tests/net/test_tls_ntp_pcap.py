"""Tests for the TLS ClientHello, NTP, and pcap codecs."""

import io
import pickle
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import Ethernet, IPv6, MacAddress, TCP, TLSClientHello
from repro.net.ntp import MODE_CLIENT, MODE_SERVER, NTP
from repro.net.packet import DecodeError
from repro.net.pcap import PcapReader, PcapRecord, dump_records, load_records
from repro.net.tcp import FLAG_ACK, FLAG_PSH

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")

hostnames = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=15),
    min_size=2,
    max_size=4,
).map(".".join)


class TestTLS:
    def test_sni_round_trip(self):
        hello = TLSClientHello("unagi-na.amazon.com")
        decoded = TLSClientHello.decode(hello.encode())
        assert decoded.server_name == "unagi-na.amazon.com"
        assert decoded.cipher_suites == hello.cipher_suites

    @given(hostnames)
    def test_sni_round_trip_property(self, name):
        assert TLSClientHello.decode(TLSClientHello(name).encode()).server_name == name

    def test_sni_recovered_through_full_stack(self):
        """The analysis extracts SNI from TCP/443 payloads inside frames."""
        frame = (
            Ethernet(MAC_B, MAC_A, 0x86DD)
            / IPv6("2001:db8::2", "2600:9000::1", 6)
            / TCP(40000, 443, FLAG_PSH | FLAG_ACK, payload=TLSClientHello("cdn.smartlife.example"))
        )
        decoded = Ethernet.decode(frame.encode())
        hello = decoded.find(TLSClientHello)
        assert hello is not None
        assert hello.server_name == "cdn.smartlife.example"

    def test_not_a_hello_rejected(self):
        with pytest.raises(DecodeError):
            TLSClientHello.decode(b"\x17\x03\x03\x00\x05hello")

    def test_random_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            TLSClientHello("x.example", random=b"\x00" * 31)


class TestNTP:
    def test_client_round_trip(self):
        decoded = NTP.decode(NTP(MODE_CLIENT, transmit_timestamp=0xDEADBEEF).encode())
        assert decoded.mode == MODE_CLIENT
        assert decoded.version == 4
        assert decoded.transmit_timestamp == 0xDEADBEEF

    def test_server_reply(self):
        decoded = NTP.decode(NTP(MODE_SERVER, stratum=2).encode())
        assert decoded.mode == MODE_SERVER
        assert decoded.stratum == 2

    def test_short_packet_rejected(self):
        with pytest.raises(DecodeError):
            NTP.decode(b"\x00" * 47)


class TestPcap:
    def test_round_trip(self):
        records = [PcapRecord(1.0, b"\x01" * 60), PcapRecord(2.5, b"\x02" * 42)]
        loaded = load_records(dump_records(records))
        assert loaded == records

    def test_timestamps_preserved_to_microseconds(self):
        records = load_records(dump_records([PcapRecord(123.456789, b"x")]))
        assert abs(records[0].timestamp - 123.456789) < 1e-6

    def test_linktype_is_ethernet(self):
        stream = io.BytesIO(dump_records([]))
        assert PcapReader(stream).linktype == 1

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_record_rejected(self):
        blob = dump_records([PcapRecord(1.0, b"\xaa" * 40)])
        with pytest.raises(ValueError):
            list(PcapReader(io.BytesIO(blob[:-5])))

    def test_truncated_record_header_rejected(self):
        blob = dump_records([PcapRecord(1.0, b"\xaa" * 40)])
        cut = blob[:24 + 7]  # global header plus half a record header
        with pytest.raises(ValueError, match="record header"):
            list(PcapReader(io.BytesIO(cut)))

    def test_truncated_global_header_rejected(self):
        with pytest.raises(ValueError, match="global header"):
            PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1\x00\x02"))

    @staticmethod
    def _big_endian_blob(records):
        # A capture as written on a big-endian machine: same layout, swapped
        # byte order, detected via MAGIC_SWAPPED.
        out = io.BytesIO()
        out.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for record in records:
            seconds = int(record.timestamp)
            micros = int(round((record.timestamp - seconds) * 1_000_000))
            out.write(struct.pack(">IIII", seconds, micros, len(record.data), len(record.data)))
            out.write(record.data)
        return out.getvalue()

    def test_big_endian_round_trip(self):
        records = [PcapRecord(1.5, b"\x01" * 60), PcapRecord(2.25, b"\x02" * 42)]
        blob = self._big_endian_blob(records)
        reader = PcapReader(io.BytesIO(blob))
        assert reader.linktype == 1
        assert list(reader) == records

    def test_big_endian_truncated_record_rejected(self):
        blob = self._big_endian_blob([PcapRecord(1.0, b"\xbb" * 30)])
        with pytest.raises(ValueError, match="record body"):
            list(PcapReader(io.BytesIO(blob[:-3])))

    def test_real_frames_survive(self):
        frame = Ethernet(MAC_B, MAC_A, 0x86DD) / IPv6("fe80::1", "ff02::1", 59)
        blob = dump_records([PcapRecord(0.0, frame.encode())])
        decoded = Ethernet.decode(load_records(blob)[0].data)
        assert decoded.src == MAC_A

    @given(st.lists(st.tuples(st.floats(0, 1e6), st.binary(max_size=64)), max_size=20))
    def test_round_trip_property(self, items):
        records = [PcapRecord(round(t, 6), d) for t, d in items]
        loaded = load_records(dump_records(records))
        assert [r.data for r in loaded] == [r.data for r in records]
        for got, want in zip(loaded, records):
            assert abs(got.timestamp - want.timestamp) < 1e-5


class TestLiveRecord:
    """A live capture record holds the sender's frame and encodes on read."""

    @staticmethod
    def _frame():
        return Ethernet(MAC_B, MAC_A, 0x86DD) / IPv6("fe80::1", "ff02::1", 59)

    def test_data_is_the_frames_encoding(self):
        frame = self._frame()
        assert PcapRecord(1.0, frame=frame).data == frame.encode()

    def test_pickle_drops_the_frame_and_keeps_the_bytes(self):
        frame = self._frame()
        record = PcapRecord(1.0, frame=frame)
        restored = pickle.loads(pickle.dumps(record))
        assert restored.frame is None
        assert restored == record
        assert restored.data == frame.encode()

    def test_record_needs_bytes_or_a_frame(self):
        with pytest.raises(ValueError):
            PcapRecord(1.0)
