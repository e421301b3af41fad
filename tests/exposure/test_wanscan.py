"""WAN attacker: address synthesis and the three acceptance behaviours."""

import ipaddress

import pytest

from repro.devices import build_inventory
from repro.exposure import (
    AttackerKnowledge,
    ExposureSpec,
    effective_pinholes,
    inventory_oui_knowledge,
    run_home_exposure,
)
from repro.devices.profile import Category
from repro.net.ip6 import eui64_interface_id, from_prefix_and_iid
from repro.net.mac import MacAddress

PREFIX = ipaddress.IPv6Network("2001:db8:100::/64")


def addr_for(mac: MacAddress) -> ipaddress.IPv6Address:
    return from_prefix_and_iid(PREFIX.network_address, eui64_interface_id(mac))


# ------------------------------------------------------- AttackerKnowledge


def test_synthesizes_eui64_with_known_oui_and_low_suffix():
    mac = MacAddress("aa:bb:cc:00:01:02")  # suffix 0x000102 = 258 < 1024
    knowledge = AttackerKnowledge(ouis=(bytes.fromhex("aabbcc"),))
    assert knowledge.synthesizes(PREFIX, addr_for(mac))


def test_rejects_unknown_oui_and_high_suffix():
    knowledge = AttackerKnowledge(ouis=(bytes.fromhex("aabbcc"),), suffix_budget=1024)
    assert not knowledge.synthesizes(PREFIX, addr_for(MacAddress("dd:ee:ff:00:01:02")))
    assert not knowledge.synthesizes(PREFIX, addr_for(MacAddress("aa:bb:cc:12:34:56")))  # suffix >> budget


def test_synthesizes_low_iid_hitlist():
    knowledge = AttackerKnowledge(ouis=(), low_iid_budget=8192)
    assert knowledge.synthesizes(PREFIX, ipaddress.IPv6Address("2001:db8:100::1"))
    assert knowledge.synthesizes(PREFIX, ipaddress.IPv6Address("2001:db8:100::1fff"))
    assert not knowledge.synthesizes(PREFIX, ipaddress.IPv6Address("2001:db8:100::2000"))


def test_rejects_random_iids_and_foreign_prefixes():
    knowledge = inventory_oui_knowledge()
    assert not knowledge.synthesizes(PREFIX, ipaddress.IPv6Address("2001:db8:100:0:9c1f:2ab3:44d5:e677"))
    some_mac = build_inventory()[0].mac
    foreign = from_prefix_and_iid(ipaddress.IPv6Address("2001:db8:999::"), eui64_interface_id(some_mac))
    assert not knowledge.synthesizes(PREFIX, foreign)


def test_inventory_knowledge_covers_every_inventory_mac():
    knowledge = inventory_oui_knowledge()
    assert knowledge.eui64_space == len(knowledge.ouis) * 1024
    assert knowledge.low_iid_space == 8192
    for profile in build_inventory():
        assert knowledge.synthesizes(PREFIX, addr_for(profile.mac)), profile.name


# ------------------------------------------------------- effective pinholes


def test_effective_pinholes_derivation():
    by_name = {p.name: p for p in build_inventory()}
    tv = by_name["Google TV"]           # TV/Ent. with open_tcp_v6=(8008,)
    assert effective_pinholes(tv) == ((6, 8008),)
    fridge = by_name["Samsung Fridge"]  # Appliance: UPnP-less, no holes
    assert effective_pinholes(fridge) == ()
    assert fridge.category is Category.APPLIANCE


# ------------------------------------------------- the acceptance behaviours


def spec_for(firewall: str, devices=("Google TV", "SmartThings Hub")) -> ExposureSpec:
    return ExposureSpec(
        home_id=0,
        sim_seed=7,
        config_name="dual-stack",
        firewall=firewall,
        device_names=tuple(devices),
    )


@pytest.fixture(scope="module")
def stateful_home():
    return run_home_exposure(spec_for("stateful"))


@pytest.fixture(scope="module")
def open_home():
    return run_home_exposure(spec_for("open"))


def test_stateful_eui64_device_discoverable_but_unreachable(stateful_home):
    tv = next(d for d in stateful_home.devices if d.device == "Google TV")
    assert tv.addr_kind == "eui64"
    assert tv.discoverable
    assert not tv.reachable
    assert tv.open_tcp == () and tv.open_udp == () and not tv.responsive
    assert stateful_home.wan_dropped > 0


def test_open_firewall_exposes_lan_open_ports(open_home):
    tv = next(d for d in open_home.devices if d.device == "Google TV")
    hub = next(d for d in open_home.devices if d.device == "SmartThings Hub")
    assert tv.discoverable and tv.reachable and tv.responsive
    assert tv.open_tcp == (8008,)       # exactly the LAN-open v6 service
    assert hub.open_tcp == (39500,)
    assert open_home.wan_dropped == 0
    assert open_home.decoy_hits == 0    # synthesized misses never respond


def test_privacy_addresses_defeat_discovery():
    # Apple TV forms RFC 8981 temporary GUAs; even a wide-open firewall
    # leaves it unreachable because no candidate address can be synthesized.
    home = run_home_exposure(spec_for("open", devices=("Apple TV",)))
    atv = home.devices[0]
    assert atv.gua_count > 0            # it does hold global addresses
    assert atv.addr_kind == "privacy"
    assert not atv.discoverable
    assert not atv.reachable


def test_pinhole_exposes_only_mapped_ports():
    home = run_home_exposure(spec_for("pinhole"))
    tv = next(d for d in home.devices if d.device == "Google TV")
    assert tv.discoverable and tv.open_tcp == (8008,)
    assert not tv.responsive            # echo has no pinhole
    home_stateful = run_home_exposure(spec_for("stateful"))
    assert all(d.open_tcp == () for d in home_stateful.devices)


# ------------------------------------------------------- decoy accounting


def settled_testbed(firewall: str, devices=("Google TV", "SmartThings Hub")):
    from repro.stack.config import with_firewall
    from repro.testbed.lab import Testbed
    from repro.testbed.study import profiles_by_name, resolve_config

    config = with_firewall(resolve_config("dual-stack"), firewall)
    testbed = Testbed(seed=7, profiles=profiles_by_name(devices), include_controls=False)
    testbed.configure(config)
    testbed.sim.run(150.0)
    return testbed


@pytest.mark.parametrize("firewall", ["open", "stateful", "pinhole"])
def test_decoys_never_discovered_and_never_respond(firewall):
    """Decoys are synthesized misses: they must be probed, never answered,
    and must never leak into any device's discovered hit list."""
    from repro.exposure.wanscan import WanScanner

    testbed = settled_testbed(firewall)
    scanner = WanScanner(testbed)
    result = scanner.run()

    assert len(result.decoys) == scanner.decoy_budget > 0
    discovered = {a for report in result.devices.values() for a in report.discovered}
    assert not discovered & set(result.decoys)
    assert result.decoy_hits == 0
    # each decoy is a genuine candidate of the sweep (the miss is real)
    for decoy in result.decoys:
        assert scanner.knowledge.synthesizes(testbed.router.lan_v6_prefix, decoy)


def test_analytic_membership_agrees_with_probe_outcomes():
    """Candidate-set membership is analytic, so it must be identical across
    firewall modes; only the probe outcomes may differ."""
    from repro.exposure.wanscan import WanScanner

    results = {fw: WanScanner(settled_testbed(fw)).run() for fw in ("open", "stateful")}
    for name in results["open"].devices:
        open_report = results["open"].devices[name]
        stateful_report = results["stateful"].devices[name]
        assert open_report.discovered == stateful_report.discovered
        # a probed member responds iff the firewall lets the probe through
        if open_report.discovered:
            assert open_report.responsive
            assert not stateful_report.responsive
    assert results["stateful"].wan_dropped > 0
    assert results["open"].wan_dropped == 0


def test_extra_targets_probed_but_never_discovered():
    """Hitlist-replay targets ride the probe path without polluting the
    analytic candidate set."""
    from repro.exposure.wanscan import WanScanner
    from repro.net.ip6 import AddressScope

    testbed = settled_testbed("open", devices=("Samsung TV",))
    device = testbed.devices[0]
    leaked = device.stack.addrs.assigned(AddressScope.GUA)[0].address
    scanner = WanScanner(testbed, extra_targets={device.name: (leaked,)})
    result = scanner.run()

    report = result.devices[device.name]
    assert result.extra_probed == 1
    assert leaked not in report.discovered
    assert not report.discoverable          # privacy addressing still hides it
    # ... but the direct probe of the leaked address reached the device
    assert report.responsive
    assert 8001 in report.open_tcp
