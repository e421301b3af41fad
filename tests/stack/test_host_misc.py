"""Host-stack edge cases: resolver, echo, UDP services, reboot hygiene."""

import ipaddress

from repro.net.dns import TYPE_A, TYPE_AAAA
from repro.net.packet import Raw
from repro.stack import StackConfig
from repro.stack.config import DUAL_STACK, IPV6_ONLY

SETTLE = 30.0


class TestResolver:
    def test_concurrent_queries_matched_by_txid(self, lab):
        lab.registry.register("one.example", v4=True, v6=True)
        lab.registry.register("two.example", v4=True, v6=True)
        host = lab.host()
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        results = {}
        host.resolve("one.example", TYPE_AAAA, 6, lambda m: results.setdefault("one", m))
        host.resolve("two.example", TYPE_AAAA, 6, lambda m: results.setdefault("two", m))
        lab.sim.run(10.0)
        assert results["one"].question.name == "one.example"
        assert results["two"].question.name == "two.example"

    def test_timeout_callback_fires_once(self, lab):
        host = lab.host()
        lab.router.configure(IPV6_ONLY)
        host.boot()
        lab.sim.run(SETTLE)
        # break the path: drop the resolver address to something unrouted
        host.dns_servers.v6 = [ipaddress.IPv6Address("2600:dead::1")]
        calls = []
        host.resolve("x.example", TYPE_AAAA, 6, calls.append)
        # long enough for the whole retry envelope (budget 2, exp. backoff)
        lab.sim.run(30.0)
        assert calls == [None]
        assert host.metrics.dns_retries == host.config.dns_retry_budget
        assert host.metrics.dns_timeouts == host.config.dns_retry_budget + 1

    def test_mismatched_response_question_rejected(self, lab):
        lab.registry.register("real.example", v4=True, v6=True)
        host = lab.host()
        lab.start(IPV6_ONLY, host, settle=SETTLE)
        # run a normal resolution to completion first (sanity)
        box = {}
        host.resolve("real.example", TYPE_A, 6, lambda m: box.setdefault("m", m))
        lab.sim.run(10.0)
        assert box["m"] is not None


class TestEchoAndServices:
    def test_echo_reply_hook(self, lab):
        a, b = lab.host("a"), lab.host("b")
        lab.start(IPV6_ONLY, a, b, settle=SETTLE)
        replies = []
        a.on_echo_reply.append(lambda src, family: replies.append((src, family)))
        from repro.net.icmpv6 import ICMPv6
        from repro.net.ip6 import AddressScope

        target = b.addrs.assigned(AddressScope.LLA)[0].address
        a.send_ipv6(target, 58, ICMPv6.echo_request(1, 1))
        lab.sim.run(5.0)
        assert replies and replies[0][0] == target

    def test_closed_udp_port_unreachable(self, lab):
        a, b = lab.host("a"), lab.host("b")
        lab.start(IPV6_ONLY, a, b, settle=SETTLE)
        events = []
        a.on_unreachable.append(lambda src, data, family: events.append(family))
        from repro.net.ip6 import AddressScope

        target = b.addrs.assigned(AddressScope.LLA)[0].address
        a.udp_send(target, 9999, Raw(b"probe"), sport=40001)
        lab.sim.run(5.0)
        assert events == [6]

    def test_open_udp_port_answers(self, lab):
        service = lab.host("svc", config=StackConfig(open_udp_ports_v6=(161,)))
        client = lab.host("cli")
        lab.start(IPV6_ONLY, service, client, settle=SETTLE)
        from repro.net.ip6 import AddressScope

        target = service.addrs.assigned(AddressScope.LLA)[0].address
        replies = []
        client.udp_bind(40002, lambda src, sport, payload: replies.append(payload.encode()))
        client.udp_send(target, 161, Raw(b"snmp?"), sport=40002)
        lab.sim.run(5.0)
        assert replies and b"svc-udp" in replies[0]


class TestRebootHygiene:
    def test_reboot_clears_addresses_and_dns(self, lab):
        host = lab.host()
        lab.start(DUAL_STACK, host, settle=SETTLE)
        assert host.addrs.assigned() and host.dns_servers.v4
        host.reset()
        assert not host.addrs.assigned()
        assert not host.dns_servers.v4 and not host.dns_servers.v6
        assert host.ipv4_address is None

    def test_reboot_reacquires_everything(self, lab):
        host = lab.host()
        lab.start(DUAL_STACK, host, settle=SETTLE)
        first_v4 = host.ipv4_address
        host.boot()
        lab.sim.run(SETTLE)
        assert host.ipv4_address == first_v4  # stable DHCP lease per MAC
        assert host.addrs.assigned()

    def test_unsolicited_na_announces_addresses(self, lab):
        """Every assigned address must be visible on the wire (capture
        completeness for the addressing analysis)."""
        records = lab.start_capture() if hasattr(lab, "start_capture") else None
        captured = []
        lab.link.add_tap(lambda ts, frame: captured.append(frame))
        host = lab.host(
            config=StackConfig(iid_mode="temporary", temporary_addr_count=3, temporary_spread=30.0, temporary_start=1.0)
        )
        lab.start(IPV6_ONLY, host, settle=120.0)
        from repro.core.capture import CaptureIndex
        from repro.net.pcap import PcapRecord

        index = CaptureIndex([PcapRecord(0.0, frame=f) for f in captured], {host.mac: "h"})
        observed = {str(a) for a in index.addresses.get("h", {})}
        assigned = {str(r.address) for r in host.addrs.assigned()}
        assert assigned <= observed
