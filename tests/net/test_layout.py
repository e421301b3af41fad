"""Every object a captured frame or a capture index is built from is slot-only.

A packet-fidelity study keeps every frame it captured, one object per header,
until analysis and export, and its capture index keeps one record per event.
A class that declares ``__slots__`` but inherits from one that does not still
gives each instance a ``__dict__`` and a ``__weakref__`` pointer, and the
first attribute written outside the slots allocates the dict. This guard
finds every ``Layer`` and ``NDOption`` class by walking ``__subclasses__()``,
so a class added later is covered without editing this file.
"""

import pytest

import repro.net  # noqa: F401  (importing the package defines every codec)
from repro.core.capture import AddressRecordObs, DhcpEvent, DnsQuery, DnsResponse, Flow, NdpEvent
from repro.net.dhcpv6 import IAAddress
from repro.net.dns import Question, ResourceRecord
from repro.net.icmpv6 import NDOption
from repro.net.mac import MacAddress
from repro.net.packet import Layer
from repro.net.pcap import LiveCapture, PcapRecord
from repro.net.tcp import FLAG_SYN, TCP
from repro.net.udp import UDP

INDEX_RECORDS = (DnsQuery, DnsResponse, NdpEvent, AddressRecordObs, Flow, DhcpEvent)
# What the layers hold, the capture that keeps the frames, and the record it
# builds on every read.
FRAME_PARTS = (PcapRecord, LiveCapture, MacAddress, Question, ResourceRecord, IAAddress)
# State only a segment parsed from wire bytes needs: its body, behind the lazy
# payload parse, and the inputs of its lazy checksum verdict.
DECODE_ONLY_SLOTS = {"_body", "_cksum_ok", "_cksum_ctx"}


def _with_subclasses(base: type) -> list[type]:
    found = [base]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


WIRE_CLASSES = _with_subclasses(Layer) + _with_subclasses(NDOption)


def test_the_walk_finds_every_codec():
    names = {cls.__name__ for cls in WIRE_CLASSES}
    assert {"Raw", "Ethernet", "ARP", "IPv4", "IPv6", "ICMPv4", "ICMPv6", "UDP", "TCP", "DNS"} <= names
    assert {"DHCPv4", "DHCPv6", "NTP", "TLSClientHello", "PrefixInfoOption", "RDNSSOption"} <= names
    assert len(WIRE_CLASSES) >= 21


@pytest.mark.parametrize("cls", WIRE_CLASSES + list(FRAME_PARTS + INDEX_RECORDS), ids=lambda cls: cls.__name__)
def test_instances_carry_no_dict_and_no_weakref_slot(cls):
    assert cls.__dictoffset__ == 0, f"{cls.__name__} instances carry a __dict__"
    assert cls.__weakrefoffset__ == 0, f"{cls.__name__} instances carry a __weakref__ slot"


def _slots(instance) -> set[str]:
    return {name for cls in type(instance).__mro__ for name in cls.__dict__.get("__slots__", ())}


def test_sender_built_segments_carry_no_decode_only_slots():
    for segment in (TCP(40000, 443, FLAG_SYN), UDP(40000, 53)):
        assert not _slots(segment) & DECODE_ONLY_SLOTS, type(segment).__name__
        assert segment.checksum_ok is None


def test_decoded_segments_keep_their_decode_only_slots():
    for sent in (TCP(40000, 443, FLAG_SYN), UDP(40000, 53)):
        decoded = type(sent).decode(sent.encode())
        assert isinstance(decoded, type(sent)) and type(decoded) is not type(sent)
        assert _slots(decoded) >= DECODE_ONLY_SLOTS
