"""Port scanner: UDP probe semantics."""

import dataclasses

import pytest

from repro.testbed.lab import Testbed
from repro.testbed.portscan import PortScanner
from repro.testbed.study import profiles_by_name, resolve_config


@pytest.fixture(scope="module")
def udp_scan():
    profiles = [dataclasses.replace(profile, open_udp_v6=(5683,)) for profile in profiles_by_name(["Google TV"])]
    testbed = Testbed(seed=5, profiles=profiles, include_controls=False)
    config = resolve_config("dual-stack")
    testbed.configure(config)
    testbed.sim.run(150.0)

    scanner = PortScanner(testbed)
    unreachables = []
    scanner.host.on_unreachable.append(lambda src, data, family: unreachables.append(family))
    report = scanner.run(tcp_ports=(), udp_ports=(5683, 5684))
    return report, unreachables


def test_udp_open_port_answers_with_payload(udp_scan):
    report, _ = udp_scan
    assert report.udp_v6.get("Google TV") == {5683}


def test_udp_closed_port_yields_port_unreachable(udp_scan):
    report, unreachables = udp_scan
    # 5684 is closed: the probe is answered with ICMPv6 Port Unreachable,
    # not a payload, so it never shows up as open
    assert 5684 not in report.udp_v6.get("Google TV", set())
    assert 6 in unreachables


def test_scan_records_probed_v6_targets(udp_scan):
    report, _ = udp_scan
    assert "Google TV" in report.scanned_v6
    targets = report.targets_v6["Google TV"]
    assert targets and all(addr.version == 6 for addr in targets)
