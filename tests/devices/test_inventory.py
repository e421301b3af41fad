"""Curation checks: the 93 profiles must reproduce the paper's aggregates.

These tests verify the *curated ground truth* directly (no simulation): the
per-category funnels of Table 3, the dual-stack deltas of Table 4, the
feature counts of Table 5, and the per-category cardinalities of Tables 6
and 9. The full-pipeline tests then verify the same numbers are *recovered
from captures*.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

import repro
from repro.devices import Category, build_inventory, device_by_name
from repro.devices.inventory import CATEGORY_TARGETS, control_phones
from repro.devices.portfolio import build_portfolio
from repro.testbed.study import profiles_by_name

CATS = [
    Category.APPLIANCE,
    Category.CAMERA,
    Category.TV,
    Category.GATEWAY,
    Category.HEALTH,
    Category.HOME_AUTO,
    Category.SPEAKER,
]


@pytest.fixture(scope="module")
def inventory():
    return build_inventory()


def per_cat(inventory, predicate):
    return [sum(1 for p in inventory if p.category is cat and predicate(p)) for cat in CATS]


def v6only_data(p):
    has_v6_names = p.portfolio.aaaa_resp_names > 0 or p.portfolio.v6_literal_names > 0
    return (p.v6only.data_v6 and has_v6_names) or p.v6only.ntp_v6


def dual_data(p):
    has_v6_names = p.portfolio.aaaa_resp_names > 0 or p.portfolio.v6_literal_names + p.portfolio.v6_literal_with_v4 > 0
    return (p.dual.data_v6 and has_v6_names) or p.dual.ntp_v6


class TestTable3IPv6Only:
    """The IPv6-only readiness funnel, per category (Fig. 2 / Table 3)."""

    def test_population(self, inventory):
        assert per_cat(inventory, lambda p: True) == [7, 18, 8, 12, 6, 26, 16]
        assert len(inventory) == 93

    def test_ndp_traffic(self, inventory):
        assert per_cat(inventory, lambda p: p.v6only.ndp) == [3, 5, 6, 11, 2, 16, 16]

    def test_no_ipv6(self, inventory):
        assert sum(1 for p in inventory if not p.v6only.ndp) == 34

    def test_address_assignment(self, inventory):
        assert per_cat(inventory, lambda p: p.v6only.addr) == [2, 5, 6, 11, 0, 11, 16]

    def test_ndp_but_no_address(self, inventory):
        assert sum(1 for p in inventory if p.v6only.ndp and not p.v6only.addr) == 8

    def test_global_unicast(self, inventory):
        assert per_cat(inventory, lambda p: p.v6only.gua) == [1, 2, 6, 5, 0, 3, 10]

    def test_dns_over_ipv6(self, inventory):
        assert per_cat(inventory, lambda p: p.v6only.dns_v6) == [1, 2, 6, 3, 0, 0, 10]

    def test_internet_data(self, inventory):
        assert per_cat(inventory, v6only_data) == [1, 2, 5, 2, 0, 0, 9]
        assert sum(per_cat(inventory, v6only_data)) == 19

    def test_functional(self, inventory):
        functional = [p.name for p in inventory if p.portfolio.essential_aaaa and p.v6only.dns_v6]
        assert sorted(functional) == sorted(
            [
                "Apple TV",
                "Google TV",
                "TiVo Stream",
                "Meta Portal Mini",
                "Google Home Mini",
                "Google Nest Mini",
                "Nest Hub",
                "Nest Hub Max",
            ]
        )

    def test_dns_but_no_data_devices(self, inventory):
        # The paper's funnel implies 3 such devices; its per-category cells
        # imply 4 (Fire TV queries AAAA in IPv6-only but only transmits in
        # dual-stack). We follow the per-category cells (DESIGN.md §4).
        stuck = [p.name for p in inventory if p.v6only.dns_v6 and not v6only_data(p)]
        assert sorted(stuck) == sorted(["Fire TV", "Aeotec Hub", "SmartThings Hub", "Echo Spot"])


class TestTable4DualStackDeltas:
    def test_ndp_delta(self, inventory):
        deltas = [
            sum(1 for p in inventory if p.category is cat and p.dual.ndp)
            - sum(1 for p in inventory if p.category is cat and p.v6only.ndp)
            for cat in CATS
        ]
        assert deltas == [0, 0, 0, -1, 0, 0, 0]

    def test_addr_delta(self, inventory):
        deltas = [
            sum(1 for p in inventory if p.category is cat and p.dual.addr)
            - sum(1 for p in inventory if p.category is cat and p.v6only.addr)
            for cat in CATS
        ]
        assert deltas == [0, 0, 0, -1, +1, +2, 0]

    def test_gua_delta(self, inventory):
        deltas = [
            sum(1 for p in inventory if p.category is cat and p.dual.gua)
            - sum(1 for p in inventory if p.category is cat and p.v6only.gua)
            for cat in CATS
        ]
        assert deltas == [0, 0, 0, -1, +1, +1, +2]

    def test_aaaa_request_delta(self, inventory):
        def v6only_aaaa(p):
            return p.v6only.dns_v6

        def dual_aaaa(p):
            return p.dual.dns_v6 or (p.dual.aaaa_v4 and p.portfolio.aaaa_names > 0)

        deltas = [
            sum(1 for p in inventory if p.category is cat and dual_aaaa(p))
            - sum(1 for p in inventory if p.category is cat and v6only_aaaa(p))
            for cat in CATS
        ]
        assert deltas == [0, +5, +1, +3, 0, +1, +5]
        assert sum(deltas) == 15

    def test_internet_data_delta(self, inventory):
        deltas = [
            sum(1 for p in inventory if p.category is cat and dual_data(p))
            - sum(1 for p in inventory if p.category is cat and v6only_data(p))
            for cat in CATS
        ]
        assert deltas == [0, 0, +1, 0, 0, 0, +2]


class TestTable5Union:
    def test_ipv6_address(self, inventory):
        assert per_cat(inventory, lambda p: p.v6only.addr or p.dual.addr) == [2, 5, 6, 11, 1, 13, 16]

    def test_stateful_dhcpv6(self, inventory):
        assert per_cat(inventory, lambda p: p.dhcpv6_stateful) == [1, 0, 2, 2, 0, 6, 1]

    def test_stateless_dhcpv6(self, inventory):
        assert per_cat(inventory, lambda p: p.dhcpv6_stateless) == [1, 0, 3, 3, 0, 6, 3]

    def test_gua(self, inventory):
        assert per_cat(inventory, lambda p: p.v6only.gua or p.dual.gua) == [1, 2, 6, 5, 1, 4, 12]

    def test_ula(self, inventory):
        assert per_cat(inventory, lambda p: p.v6only.ula or p.dual.ula) == [1, 2, 2, 5, 1, 5, 7]

    def test_lla(self, inventory):
        # Table 5's LLA row sums to 50 while the prose says 51; we keep 51
        # (SmartLife Remote gets its LLA in dual-stack) — DESIGN.md §4.
        lla = per_cat(inventory, lambda p: (p.v6only.addr or p.dual.addr) and p.form_lla)
        assert lla == [2, 5, 6, 10, 0, 12, 16]

    def test_eui64_devices(self, inventory):
        eui = per_cat(inventory, lambda p: (p.v6only.addr or p.dual.addr) and p.iid_mode == "eui64")
        assert eui == [1, 2, 3, 7, 0, 8, 10]
        assert sum(eui) == 31

    def test_gua_eui64_devices(self, inventory):
        def gua_eui(p):
            return (p.v6only.gua or p.dual.gua) and p.iid_mode == "eui64" and not p.gua_iid_mode

        assert sum(1 for p in inventory if gua_eui(p)) == 15

    def test_dns_over_v6(self, inventory):
        assert per_cat(inventory, lambda p: p.v6only.dns_v6 or p.dual.dns_v6) == [1, 2, 6, 3, 0, 0, 10]

    def test_aaaa_any_transport(self, inventory):
        def any_aaaa(p):
            return p.v6only.dns_v6 or p.dual.dns_v6 or (p.dual.aaaa_v4 and p.portfolio.aaaa_names > 0)

        assert per_cat(inventory, any_aaaa) == [1, 7, 7, 6, 0, 1, 15]

    def test_ipv4_transport_aaaa(self, inventory):
        def v4_aaaa(p):
            return p.portfolio.aaaa_v4only_names > 0 and p.dual.aaaa_v4

        assert per_cat(inventory, v4_aaaa) == [1, 7, 5, 5, 0, 1, 14]
        assert sum(per_cat(inventory, v4_aaaa)) == 33

    def test_aaaa_response_devices(self, inventory):
        resp = per_cat(inventory, lambda p: p.portfolio.aaaa_resp_names > 0)
        assert resp == [1, 5, 7, 2, 0, 1, 15]
        assert sum(resp) == 31

    def test_internet_transmission_union(self, inventory):
        union = per_cat(inventory, lambda p: v6only_data(p) or dual_data(p))
        assert union == [1, 2, 6, 3, 0, 0, 11]
        assert sum(union) == 23

    def test_local_transmission(self, inventory):
        local = per_cat(inventory, lambda p: p.v6only.local_v6 or p.dual.local_v6)
        assert local == [1, 2, 5, 5, 0, 3, 5]

    def test_use_dhcpv6_lease(self, inventory):
        users = [p.name for p in inventory if p.use_dhcpv6_address]
        assert sorted(users) == sorted(["Samsung Fridge", "Aeotec Hub", "SmartThings Hub", "HomePod Mini"])

    def test_rdnss_exception(self, inventory):
        no_rdnss = [p.name for p in inventory if not p.accept_rdnss]
        assert no_rdnss == ["Vizio TV"]


class TestTable6Addresses:
    def test_gua_address_counts(self, inventory):
        counts = [
            sum(p.gua_addr_count for p in inventory if p.category is cat and (p.v6only.gua or p.dual.gua))
            for cat in CATS
        ]
        assert counts == [12, 74, 55, 119, 1, 5, 190]
        assert sum(counts) == 456

    def test_ula_address_counts(self, inventory):
        counts = [
            sum(p.ula_addr_count for p in inventory if p.category is cat and (p.v6only.ula or p.dual.ula))
            for cat in CATS
        ]
        assert counts == [4, 26, 6, 20, 1, 7, 105]
        assert sum(counts) == 169

    def test_lla_address_counts(self, inventory):
        counts = [
            sum(p.lla_count for p in inventory if p.category is cat and (p.v6only.addr or p.dual.addr) and p.form_lla)
            for cat in CATS
        ]
        assert counts == [3, 5, 10, 10, 0, 12, 19]
        assert sum(counts) == 59

    def test_total_addresses(self, inventory):
        assert 456 + 169 + 59 == 684


class TestDADCuration:
    def test_full_skippers(self, inventory):
        skippers = [p.name for p in inventory if not p.dad_enabled and (p.v6only.addr or p.dual.addr)]
        assert sorted(skippers) == sorted(
            ["Aqara Hub", "Aqara Hub M2", "Consciot Matter Bulb", "Govee Matter Strip"]
        )
        for name in skippers:
            profile = next(p for p in inventory if p.name == name)
            assert profile.iid_mode == "eui64"

    def test_gua_without_dad_count(self, inventory):
        total = sum(
            p.gua_addr_count
            for p in inventory
            if "GUA" in p.dad_skip_scopes and (p.v6only.gua or p.dual.gua)
        )
        assert total == 20

    def test_ula_without_dad_count(self, inventory):
        total = sum(
            p.ula_addr_count
            for p in inventory
            if "ULA" in p.dad_skip_scopes and (p.v6only.ula or p.dual.ula)
        )
        assert total == 7

    def test_lla_without_dad_count(self, inventory):
        total = sum(
            p.lla_count
            for p in inventory
            if p.form_lla
            and (p.v6only.addr or p.dual.addr)
            and ("LLA" in p.dad_skip_scopes or not p.dad_enabled)
        )
        assert total == 8


class TestPortfolios:
    def test_all_portfolios_build(self, inventory):
        for profile in inventory:
            plans = build_portfolio(profile)
            assert len(plans) == profile.portfolio.total, profile.name

    def test_distinct_names_globally(self, inventory):
        names = [plan.name for profile in inventory for plan in build_portfolio(profile)]
        assert len(names) == len(set(names))

    def test_destination_totals_per_category(self, inventory):
        for cat in CATS:
            dests = 0
            for profile in (p for p in inventory if p.category is cat):
                for plan in build_portfolio(profile):
                    if plan.in_v4only or plan.data_v4_in_dual or plan.data_v6_in_dual or plan.in_v6only and (
                        plan.data_v6_in_v6only
                    ):
                        dests += 1
            assert dests == CATEGORY_TARGETS[cat]["dest"], cat

    def test_table9_numerators(self, inventory):
        # Essential domains of functional devices are partial extenders too
        # (contacted over v4 in IPv4-only, over both versions in dual-stack),
        # as are literal relays with A records.
        def ess_partial(p):
            return p.portfolio.essential if (p.portfolio.essential_aaaa and p.dual.data_v6) else 0

        t43p = [
            sum(
                p.portfolio.v4_to_v6_partial + p.portfolio.v6_literal_with_v4 + ess_partial(p)
                for p in inventory
                if p.category is cat
            )
            for cat in CATS
        ]
        t43f = [sum(p.portfolio.v4_to_v6_full for p in inventory if p.category is cat) for cat in CATS]
        t34p = [
            sum(p.portfolio.v6_to_v4_partial + ess_partial(p) for p in inventory if p.category is cat)
            for cat in CATS
        ]
        t34f = [sum(p.portfolio.v6_to_v4_full for p in inventory if p.category is cat) for cat in CATS]
        assert t43p == [1, 15, 29, 1, 0, 0, 78]
        assert t43f == [0, 0, 20, 0, 0, 0, 17]
        assert t34p == [2, 7, 40, 0, 0, 0, 89]
        assert t34f == [0, 3, 15, 0, 0, 0, 8]

    def test_essentials_present(self, inventory):
        for profile in inventory:
            plans = build_portfolio(profile)
            essentials = [p for p in plans if p.essential]
            assert len(essentials) == profile.portfolio.essential + profile.portfolio.essential_a_only


class TestMetadata:
    def test_purchase_year_histogram(self, inventory):
        from collections import Counter

        histogram = Counter(p.purchase_year for p in inventory)
        assert histogram == {2017: 8, 2018: 16, 2019: 6, 2021: 24, 2022: 15, 2023: 16, 2024: 8}

    def test_manufacturer_diversity(self, inventory):
        manufacturers = {p.manufacturer for p in inventory}
        assert len(manufacturers) >= 40

    def test_key_manufacturer_counts(self, inventory):
        from collections import Counter

        counts = Counter(p.manufacturer for p in inventory)
        assert counts["Google"] == 8
        assert counts["Amazon"] == 13
        assert counts["Ring"] == 4
        assert counts["Samsung/SmartThings"] == 4
        assert counts["Tuya"] == 6
        assert counts["TP-Link"] == 5
        assert counts["Aidot"] == 3
        assert counts["Meross"] == 3
        assert counts["Withings"] == 3

    def test_os_groups(self, inventory):
        from collections import Counter

        counts = Counter(p.os for p in inventory if p.os)
        assert counts["Tizen"] == 2
        assert counts["FireOS"] == 11
        assert counts["Android-based"] == 5
        assert counts["Fuchsia"] == 2
        assert counts["iOS/tvOS"] == 2

    def test_unique_macs(self, inventory):
        macs = {p.mac for p in inventory}
        assert len(macs) == 93
        assert all(not m.is_multicast for m in macs)

    def test_every_manufacturer_has_its_own_oui(self, inventory):
        ouis = {}
        for profile in inventory + control_phones():
            ouis.setdefault(profile.manufacturer, set()).add(profile.mac.packed[:3])
        assert all(len(prefixes) == 1 for prefixes in ouis.values())
        assert len(set.union(*ouis.values())) == len(ouis)


class TestCatalog:
    """One frozen catalog per process, shared by every lookup."""

    def test_every_lookup_shares_one_catalog(self):
        assert build_inventory() is build_inventory()
        assert control_phones() is control_phones()
        assert profiles_by_name(["Google TV"])[0] is device_by_name("Google TV")
        assert any(profile is device_by_name("Google TV") for profile in build_inventory())

    def test_unknown_names_are_rejected(self):
        with pytest.raises(KeyError, match="Toaster"):
            profiles_by_name(["Google TV", "Toaster"])
        with pytest.raises(KeyError):
            device_by_name("Toaster")

    def test_every_field_is_frozen(self, inventory):
        profile = inventory[0]
        for field in dataclasses.fields(profile):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(profile, field.name, getattr(profile, field.name))

    def test_replace_keeps_the_mac(self, inventory):
        profile = inventory[0]
        variant = dataclasses.replace(profile, gua_addr_count=3)
        assert variant.gua_addr_count == 3
        assert variant.mac == profile.mac


# Everything that identifies a host on the wire and derives from a name:
# every MAC, and the ULA prefix a fabric host forms.
_WIRE_IDENTITY = """
from repro.devices.inventory import build_inventory, control_phones
from repro.net.mac import MacAddress
from repro.sim import EthernetLink, Simulator
from repro.stack import HostStack, StackConfig

for profile in build_inventory() + control_phones():
    print(profile.name, profile.mac)
sim = Simulator(seed=1)
host = HostStack(sim, "fabric", MacAddress("02:aa:00:00:00:01"), EthernetLink(sim), StackConfig(form_ula=True))
host.boot()
sim.run(10.0)
print(*host.onlink_prefixes)
"""


def test_wire_identity_does_not_depend_on_the_hash_seed():
    """Python salts str hashing per process, so no MAC or prefix may come from hash()."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _WIRE_IDENTITY],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0].rstrip().endswith("::/64")  # the host formed its ULA prefix
    assert outputs[0] == outputs[1]
