"""Offline (pcap-file) analysis must equal live in-memory analysis."""

import struct
from collections import Counter

import pytest

from repro import reports
from repro.core.analysis import StudyAnalysis
from repro.core.meta import metadata_from_profiles
from repro.core.offline import load_study_from_pcaps
from repro.core.readiness import table3
from repro.devices import build_inventory
from repro.net.checksum import internet_checksum
from repro.net.ethernet import Ethernet
from repro.net.ipv4 import IPv4
from repro.net.tcp import TCP
from repro.net.udp import UDP
from repro.testbed import Testbed
from repro.testbed.study import run_full_study

SUBSET = ["Samsung Fridge", "Google Home Mini", "Echo Dot 3rd gen", "Wemo Plug"]

# Every table and figure rendered from captures (Table 2 is the static
# experiment matrix).
RENDERS = [f"table{n}" for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 13)] + [f"figure{n}" for n in (2, 3, 4, 5)]


@pytest.fixture(scope="module")
def mini_study():
    profiles = [p for p in build_inventory() if p.name in SUBSET]
    return run_full_study(
        seed=13,
        testbed=Testbed(seed=13, profiles=profiles),
        with_port_scan=False,
        with_active_dns=False,
    )


def test_pcap_round_trip_preserves_analysis(mini_study, tmp_path):
    mini_study.export_pcaps(tmp_path)
    functionality = {name: result.functionality for name, result in mini_study.experiments.items()}
    profiles = mini_study.testbed.profiles
    metadata = metadata_from_profiles(profiles)

    reloaded = load_study_from_pcaps(tmp_path, mini_study.mac_table, functionality, profiles)
    live = StudyAnalysis(mini_study, metadata)
    offline = StudyAnalysis(reloaded, metadata)
    assert table3(offline) == table3(live)
    for name in RENDERS:
        render = getattr(reports, f"render_{name}")
        assert render(offline) == render(live), f"{name} differs offline"


def _protocol(layer) -> str:
    """The protocol a layer speaks; decoded TCP and UDP are subclasses of the sender's classes."""
    for protocol in (TCP, UDP):
        if isinstance(layer, protocol):
            return protocol.__name__
    return type(layer).__name__


def test_exported_checksums_verify(mini_study, tmp_path):
    """Every checksum the encoders wrote into an export verifies on decode."""
    mini_study.export_pcaps(tmp_path)
    reloaded = load_study_from_pcaps(tmp_path, mini_study.mac_table)
    verified = Counter()
    for result in reloaded.experiments.values():
        for record in result.records:
            for layer in Ethernet.decode(record.data).layers():
                if isinstance(layer, IPv4):
                    # No IPv4 options are modelled: the header is 20 bytes.
                    assert internet_checksum(record.data[14:34]) == 0
                    verified["IPv4 header"] += 1
                if hasattr(layer, "checksum_ok"):
                    assert layer.checksum_ok is True, f"{layer!r} at t={record.timestamp}"
                    verified[_protocol(layer)] += 1
    assert all(verified[kind] for kind in ("IPv4 header", "TCP", "UDP", "ICMPv6")), verified


def test_reloaded_frame_counts_match(mini_study, tmp_path):
    mini_study.export_pcaps(tmp_path)
    reloaded = load_study_from_pcaps(tmp_path, mini_study.mac_table)
    for name, result in mini_study.experiments.items():
        assert len(reloaded.experiments[name].records) == len(result.records)


def test_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_study_from_pcaps(tmp_path / "empty", {})


def test_unknown_experiment_name_rejected(mini_study, tmp_path):
    mini_study.export_pcaps(tmp_path)
    (tmp_path / "mystery.pcap").write_bytes((tmp_path / "ipv4-only.pcap").read_bytes())
    with pytest.raises(ValueError):
        load_study_from_pcaps(tmp_path, mini_study.mac_table)


def test_non_ethernet_capture_rejected(tmp_path):
    """A Linux cooked capture (``tcpdump -i any``, link type 113) would index
    its 16-byte cooked header as Ethernet and read zero everywhere."""
    body = b"\x00" * 60
    (tmp_path / "ipv6-only.pcap").write_bytes(
        struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 113)
        + struct.pack("<IIII", 1, 0, len(body), len(body))
        + body
    )
    with pytest.raises(ValueError, match="ipv6-only.pcap.*113"):
        load_study_from_pcaps(tmp_path, {})
