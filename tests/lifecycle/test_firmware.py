"""Firmware revisions: profile transforms that stay inventory-valid."""

import pytest

from repro.devices import build_inventory
from repro.devices.portfolio import build_portfolio
from repro.lifecycle.firmware import (
    REVISIONS,
    apply_revisions,
    get_revision,
    upgrade_path,
)


@pytest.fixture(scope="module")
def inventory():
    return build_inventory()


class TestCatalog:
    def test_get_revision_unknown(self):
        with pytest.raises(KeyError, match="unknown firmware revision 'v7-stack'"):
            get_revision("v7-stack")

    def test_revisions_idempotent_by_applicability(self, inventory):
        """Once applied, a revision no longer applies — paths never loop."""
        for profile in inventory:
            for name in upgrade_path(profile):
                revision = get_revision(name)
                upgraded = revision.transform(profile)
                assert not revision.applies(upgraded), (profile.name, name)


class TestV6Stack:
    def test_v4_only_becomes_ready(self, inventory):
        stale = [p for p in inventory if "v6-stack" in upgrade_path(p)]
        assert stale, "inventory should contain v4-only profiles"
        for profile in stale:
            upgraded = apply_revisions(profile, ("v6-stack",))
            assert upgraded.v6only.dns_v6 and upgraded.v6only.gua
            assert upgraded.portfolio.essential_aaaa
            assert upgraded.portfolio.essential_a_only == 0
            assert upgraded.mac == profile.mac

    def test_upgraded_portfolio_still_builds(self, inventory):
        """The AAAA-counter uplift must satisfy build_portfolio's structural
        accounting for every profile in the inventory."""
        for profile in inventory:
            upgraded = apply_revisions(profile, upgrade_path(profile))
            build_portfolio(upgraded)


class TestOtherRevisions:
    def test_privacy_iid_rotates(self, inventory):
        profile = next(p for p in inventory if "privacy-iid" in upgrade_path(p))
        upgraded = apply_revisions(profile, ("privacy-iid",))
        assert upgraded.gua_iid_mode == "temporary"
        assert upgraded.gua_rotate_out
        assert upgraded.gua_addr_count >= 2

    def test_resolver_hardening(self, inventory):
        profile = next(p for p in inventory if "resolver-hardening" in upgrade_path(p))
        upgraded = apply_revisions(profile, ("resolver-hardening",))
        assert upgraded.dns_retry_budget >= 4
        assert upgraded.dns_backoff_base <= 1.0

    def test_upgrade_path_release_order(self, inventory):
        order = list(REVISIONS)
        for profile in inventory:
            path = upgrade_path(profile)
            assert list(path) == [name for name in order if name in path]
