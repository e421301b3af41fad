"""Integration tests: address auto-configuration (SLAAC, DAD, DHCPv4/v6)."""

import ipaddress

from repro.net.ip6 import AddressScope, mac_from_eui64
from repro.stack import StackConfig
from repro.stack.config import DUAL_STACK, DUAL_STACK_STATEFUL, IPV4_ONLY, IPV6_ONLY, IPV6_ONLY_STATEFUL

SETTLE = 30.0


class TestDHCPv4:
    def test_lease_acquired_in_dual_stack(self, lab):
        host = lab.host("laptop")
        lab.start(DUAL_STACK, host, settle=SETTLE)
        assert host.ipv4_address == ipaddress.IPv4Address("192.168.10.50")
        assert host.ipv4_gateway == lab.router.v4_address
        assert host.dns_servers.v4 == [ipaddress.IPv4Address("8.8.8.8")]

    def test_no_lease_in_ipv6_only(self, lab):
        host = lab.host()
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        assert host.ipv4_address is None

    def test_two_hosts_get_distinct_leases(self, lab):
        a, b = lab.host("a"), lab.host("b")
        lab.start(IPV4_ONLY, a, b, settle=SETTLE)
        assert a.ipv4_address != b.ipv4_address
        assert a.ipv4_address in lab.router.lan_v4_network


class TestSLAAC:
    def test_lla_and_gua_formed(self, lab):
        host = lab.host()
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        llas = host.addrs.assigned(AddressScope.LLA)
        guas = host.addrs.assigned(AddressScope.GUA)
        assert len(llas) == 1
        assert len(guas) == 1
        assert guas[0].address in lab.router.lan_v6_prefix

    def test_eui64_gua_embeds_mac(self, lab):
        host = lab.host(config=StackConfig(iid_mode="eui64"))
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        gua = host.addrs.assigned(AddressScope.GUA)[0]
        assert mac_from_eui64(gua.address) == host.mac

    def test_temporary_iid_hides_mac(self, lab):
        host = lab.host(config=StackConfig(iid_mode="temporary"))
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        gua = host.addrs.assigned(AddressScope.GUA)[0]
        assert mac_from_eui64(gua.address) is None

    def test_temporary_addresses_rotate(self, lab):
        host = lab.host(config=StackConfig(iid_mode="temporary", temporary_addr_count=4))
        lab.start(IPV6_ONLY, host, settle=1200.0)
        guas = host.addrs.assigned(AddressScope.GUA)
        assert len(guas) == 4
        assert len({g.address for g in guas}) == 4

    def test_no_ra_means_no_gua_in_ipv4_only(self, lab):
        host = lab.host()
        lab.start(IPV4_ONLY, host, settle=SETTLE)
        assert not host.addrs.assigned(AddressScope.GUA)
        assert not host.ra_seen

    def test_dad_performed_flag(self, lab):
        host = lab.host()
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        for record in host.addrs.assigned():
            assert record.dad_performed

    def test_dad_skipped_when_configured(self, lab):
        config = StackConfig(dad_enabled=False)
        host = lab.host(config=config)
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        records = host.addrs.assigned()
        assert records
        assert all(not r.dad_performed for r in records)

    def test_ula_self_assignment(self, lab):
        host = lab.host(config=StackConfig(form_ula=True, ula_prefix_seed="fabric-1"))
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        ulas = host.addrs.assigned(AddressScope.ULA)
        assert len(ulas) == 1
        assert ulas[0].origin == "ula-self"


class TestDHCPv6:
    def test_stateless_learns_dns(self, lab):
        host = lab.host()
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        assert lab.internet.dns_v6 in host.dns_servers.v6

    def test_rdnss_only_still_learns_dns_when_supported(self, lab):
        from repro.stack.config import IPV6_ONLY_RDNSS

        host = lab.host()
        lab.start(IPV6_ONLY_RDNSS, host, settle=SETTLE)
        assert lab.internet.dns_v6 in host.dns_servers.v6

    def test_rdnss_only_fails_without_rdnss_support(self, lab):
        """The Vizio TV case: needs DHCPv6 for DNS, no RDNSS support."""
        from repro.stack.config import IPV6_ONLY_RDNSS

        host = lab.host(config=StackConfig(accept_rdnss=False))
        lab.start(IPV6_ONLY_RDNSS, host, settle=SETTLE)
        assert not host.dns_servers.v6

    def test_stateful_lease(self, lab):
        config = StackConfig(dhcpv6_stateful=True, use_dhcpv6_address=True)
        host = lab.host(config=config)
        lab.start(IPV6_ONLY_STATEFUL, host, settle=SETTLE)
        assert host.dhcpv6_lease is not None
        assert host.dhcpv6_lease in lab.router.lan_v6_prefix
        leased = [r for r in host.addrs.assigned() if r.origin == "dhcpv6"]
        assert len(leased) == 1

    def test_stateful_lease_supported_but_unused(self, lab):
        config = StackConfig(dhcpv6_stateful=True, use_dhcpv6_address=False)
        host = lab.host(config=config)
        lab.start(DUAL_STACK_STATEFUL, host, settle=SETTLE)
        assert host.dhcpv6_lease is not None
        assert not [r for r in host.addrs.assigned() if r.origin == "dhcpv6"]


class TestDADConflict:
    def test_duplicate_eui64_detected(self, lab):
        """Two hosts with the same MAC produce the same EUI-64 address; DAD
        must prevent double assignment."""
        first = lab.host("first")
        clone = lab.host("clone")
        clone.mac = first.mac  # forged duplicate hardware address
        clone.addrs.mac = first.mac
        lab.router.configure(IPV6_ONLY)
        first.boot()
        lab.sim.run(20.0)
        clone.boot()
        lab.sim.run(20.0)
        # the clone saw the NA defence (or the first host's DAD NS) and
        # did not assign the same LLA
        first_addrs = {r.address for r in first.addrs.assigned()}
        clone_addrs = {r.address for r in clone.addrs.assigned()}
        assert not first_addrs & clone_addrs
