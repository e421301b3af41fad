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
from repro.net.pcap import PcapRecord

INDEX_RECORDS = (DnsQuery, DnsResponse, NdpEvent, AddressRecordObs, Flow, DhcpEvent)
# What the layers hold, and the record a live capture keeps per frame.
FRAME_PARTS = (PcapRecord, MacAddress, Question, ResourceRecord, IAAddress)


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
