"""RFC 8981 temporary-address rotation: deprecate, then remove.

With ``temporary_rotate_out`` on, each fresh temporary GUA deprecates its
predecessors (kept valid for established flows, never preferred for new
ones) and removes them ``temporary_valid_tail`` seconds later — so the
host's exposure surface *drifts* instead of accumulating. The default stays
off: every pre-lifecycle golden depends on addresses accumulating within
one experiment window.
"""

import dataclasses

from repro.net.ip6 import AddressScope, mac_from_eui64
from repro.stack import StackConfig
from repro.stack.config import IPV6_ONLY


def rotating_config(**overrides) -> StackConfig:
    config = StackConfig(
        iid_mode="temporary",
        temporary_addr_count=3,
        temporary_start=100.0,
        temporary_spread=200.0,
        temporary_rotate_out=True,
        temporary_valid_tail=150.0,
    )
    return dataclasses.replace(config, **overrides)


def guas(host):
    return host.addrs.assigned(AddressScope.GUA)


class TestRotateOut:
    def test_rotation_produces_fresh_random_iid(self, lab):
        host = lab.host(config=rotating_config())
        lab.start(IPV6_ONLY, host, settle=1000.0)
        assert host.addrs.retired
        current = {record.address for record in guas(host)}
        # fresh IIDs: never a MAC-derived address, never a rotated-out one
        for record in guas(host):
            assert record.iid_kind == "temporary"
            assert mac_from_eui64(record.address) is None
        assert current.isdisjoint(host.addrs.retired)

    def test_old_temporary_deprecated_then_removed(self, lab):
        host = lab.host(config=rotating_config())
        lab.start(IPV6_ONLY, host, settle=30.0)
        first = guas(host)[0].address
        # second temporary forms at ~200 s (start + spread/3): predecessor
        # becomes deprecated but stays assigned through the valid tail...
        lab.sim.run(220.0)
        record = host.addrs.get(first)
        assert record is not None and record.deprecated
        assert record in guas(host)
        # ...and is gone (retired) once the 150 s tail expires.
        lab.sim.run(160.0)
        assert host.addrs.get(first) is None
        assert first in host.addrs.retired

    def test_new_flows_avoid_deprecated_source(self, lab):
        host = lab.host(config=rotating_config())
        lab.start(IPV6_ONLY, host, settle=220.0)
        deprecated = [r for r in guas(host) if r.deprecated]
        assert deprecated
        from repro.net.ip6 import as_ipv6

        best = host.addrs.best_source(as_ipv6("2001:db8:adad::9"))
        assert not best.deprecated

    def test_rotation_off_accumulates_addresses(self, lab):
        host = lab.host(config=rotating_config(temporary_rotate_out=False))
        lab.start(IPV6_ONLY, host, settle=1000.0)
        assert len(guas(host)) == 3
        assert not host.addrs.retired
        assert all(not record.deprecated for record in guas(host))


class TestExposureAfterRotation:
    def settled_rotating_testbed(self):
        from repro.testbed.lab import Testbed
        from repro.testbed.study import profiles_by_name, resolve_config

        profile = profiles_by_name(("Samsung TV",))[0]
        rotated = dataclasses.replace(profile, gua_addr_count=3, gua_rotation_fast=True, gua_rotate_out=True)
        config = resolve_config("dual-stack")
        testbed = Testbed(seed=7, profiles=[rotated], include_controls=False)
        testbed.configure(config)
        testbed.sim.run(400.0)
        return testbed

    def test_exposure_never_discovers_rotated_out_addresses(self):
        """A WAN scan after rotation sees only the live surface: the census
        excludes retired addresses, and even a hitlist replay of one (the
        leaked-to-a-server case) draws no response from the home."""
        from repro.exposure.wanscan import WanScanner

        testbed = self.settled_rotating_testbed()
        device = testbed.devices[0]
        retired = device.stack.addrs.retired
        assert retired  # the fast-rotating profile rotated out at least once

        scanner = WanScanner(testbed, extra_targets={device.name: tuple(retired)})
        result = scanner.run()
        report = result.devices[device.name]

        live = {record.address for record in device.stack.addrs.assigned(AddressScope.GUA)}
        assert report.gua_count == len(live)
        assert set(report.discovered).isdisjoint(retired)
        assert result.extra_probed == len(retired)
        # probing the rotated-out addresses directly reaches nothing
        assert not report.responsive
        assert not report.open_tcp and not report.open_udp
