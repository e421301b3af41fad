"""Equivalence tests for the hybrid-fidelity flow fast path.

The contract (DESIGN.md §13): a ``flow``-fidelity run must produce the same
*analysis* output as the ``packet``-fidelity run bit for bit — same flows,
same byte totals, same address-usage observations, same DNS/NDP/DHCP event
streams at the same timestamps — and leave the home in the same state,
while eliding the frames of clean DNS lookups, TCP connections, NTP and
beacons from the wire. Fault windows overlapping an exchange's lifetime
force it back to packet fidelity, so faulted runs stay equivalent too.
"""

import functools
from collections import Counter

import pytest

from repro.core.analysis import StudyAnalysis
from repro.core.capture import CaptureIndex
from repro.core.meta import metadata_from_profiles
from repro.devices import build_inventory
from repro.faults.inject import FaultInjector
from repro.faults.schedule import FaultSchedule, FaultWindow
from repro.net.arp import ARP, OP_REPLY as ARP_REPLY
from repro.net.dhcpv6 import DHCPv6
from repro.net.dns import DNS
from repro.net.ip6 import as_ipv6
from repro.net.ipv6 import IPv6
from repro.net.tcp import TCP
from repro.net.udp import UDP
from repro.reports import render_table3, render_table6, render_table7
from repro.stack.config import (
    ALL_CONFIGS,
    DUAL_STACK,
    IPV6_ONLY,
    IPV6_ONLY_RDNSS,
    IPV6_ONLY_STATEFUL,
    with_fidelity,
    with_firewall,
)
from repro.testbed import Testbed, run_connectivity_experiment
from repro.testbed.study import run_full_study
from tests.pipeline.test_goldens import pcap_sha256

SUBSET = [
    "Samsung Fridge",
    "Google Home Mini",
    "Apple TV",
    "IKEA Gateway",
    "Echo Dot 3rd gen",
    "Wemo Plug",
    "Philips Hue Hub",
]


def _profiles():
    return [p for p in build_inventory() if p.name in SUBSET]


def _study(fidelity):
    testbed = Testbed(seed=5, profiles=_profiles())
    return run_full_study(seed=5, testbed=testbed, fidelity=fidelity)


@pytest.fixture(scope="module")
def packet_study():
    return _study("packet")


@pytest.fixture(scope="module")
def flow_study():
    return _study("flow")


def _snapshot(index: CaptureIndex) -> dict:
    """Everything the analysis layer reads from an index, timestamps
    included, canonically ordered."""
    return {
        "flows": sorted(
            (
                flow.device,
                flow.proto,
                flow.family,
                str(flow.local_ip),
                str(flow.remote_ip),
                flow.local_port,
                flow.remote_port,
                flow.bytes_out,
                flow.bytes_in,
                flow.sni,
                flow.is_local,
                flow.is_data,
                flow.first_seen,
            )
            for flow in index.flows
        ),
        "addresses": {
            device: {
                str(addr): (obs.dad_seen, obs.used_for_data, obs.used_for_dns, obs.used_at_all, obs.first_seen)
                for addr, obs in obs_map.items()
            }
            for device, obs_map in index.addresses.items()
        },
        "ntp_v6_devices": sorted(index.ntp_v6_devices),
        "dns_queries": sorted(
            (q.device, q.name, q.qtype, q.family, str(q.src_ip), q.timestamp) for q in index.dns_queries
        ),
        "dns_responses": sorted(
            (r.device, r.name, r.qtype, r.family, r.rcode, tuple(map(str, r.answers)), r.timestamp)
            for r in index.dns_responses
        ),
        "ndp_events": sorted(
            (e.device, e.kind, str(e.target), str(e.src_ip), e.timestamp) for e in index.ndp_events
        ),
        "dhcp_events": sorted(
            (e.device, e.protocol, e.msg_type, e.stateful, e.timestamp) for e in index.dhcp_events
        ),
        "decode_errors": index.decode_errors,
    }


def _end_state(testbed) -> dict:
    """The state a run leaves in the home: router tables, firewall,
    shared and per-host random streams, address use, caches, the clock."""
    router = testbed.router
    firewall = router.firewall
    state = {
        "nat44": (dict(router._nat_out), dict(router._nat_in), router._next_nat_port),
        "firewall flows": dict(firewall._flows),
        "firewall verdicts": (
            firewall.passed,
            firewall.passed_open,
            firewall.passed_flow,
            firewall.passed_pinhole,
            firewall.dropped,
        ),
        "router neighbours": list(router.neighbors.entries().items()),
        "router arp": list(router.arp.entries().items()),
        "internet rng": testbed.internet.rng.getstate(),
        "clock": testbed.sim.now,
    }
    for device in testbed.everyone:
        stack = device.stack
        state[f"host {device.name}"] = (
            stack.rng.getstate(),
            device.rng.getstate(),
            stack._retry_rng.getstate(),
            [(record.address, record.used) for record in stack.addrs.records],
            list(stack.neighbors.entries().items()),
            list(stack.arp.entries().items()),
        )
    return state


def assert_same_end_state(flow_testbed, packet_testbed) -> None:
    """The flow run leaves the home exactly as the packet run does."""
    flow, packet = _end_state(flow_testbed), _end_state(packet_testbed)
    for part, value in packet.items():
        assert flow[part] == value, f"fidelity changed the end state of {part}"


def assert_frames_kept_in_place(flow_records, packet_records) -> None:
    """Every flow-capture record equals a distinct packet-capture record in
    timestamp and bytes: the flow path elides frames and moves none of
    those it keeps."""
    unmatched = Counter(flow_records) - Counter(packet_records)
    first = sorted(record.timestamp for record in unmatched)[:3]
    assert sum(unmatched.values()) == 0, f"flow-capture frames unmatched, first at {first}"


# sha256 of each experiment's frame records from the flow-fidelity study,
# written as a pcap through ``PcapWriter``. ``Study.export_pcaps`` refuses
# this study, whose flow records a pcap cannot hold.
FLOW_CAPTURE_SHA256 = {
    "ipv4-only": "38a69d5e404f2a3bef72d4b397b0a85df1fba3adad57154879f18f0620e3938b",
    "ipv6-only": "7b43438c6bf631d614ed143b8e4e5fd4d02029ef2af0419f0a50895d0c9b1603",
    "ipv6-only-rdnss": "be7fb92dd0d85379e2b578b5a81429dfa8846a270f0b29b29ee85c30e3055fe9",
    "ipv6-only-stateful": "fda0c1c800f3d201c0c95d56ee9ac9d2eb1fa0f43853c87b77f0ba4afc868e4a",
    "dual-stack": "3406c9db1b7d703a0071408cc02ec51f554971c2589fea2949f9d6cae7bc0c98",
    "dual-stack-stateful": "3731e6d44ba3aea36a84faa84457b5ca6b0f6ee7722f78bbb4d25c188bbc1a67",
}


class TestStudyEquivalence:
    def test_functionality_identical(self, packet_study, flow_study):
        for config in ALL_CONFIGS:
            assert (
                flow_study.experiment(config.name).functionality
                == packet_study.experiment(config.name).functionality
            ), f"fidelity changed device functionality under {config.name}"

    def test_indexes_identical(self, packet_study, flow_study):
        packet_indexes = packet_study.shared_indexes()
        flow_indexes = flow_study.shared_indexes()
        for name in packet_indexes:
            assert _snapshot(flow_indexes[name]) == _snapshot(packet_indexes[name]), (
                f"fidelity changed the {name} capture index"
            )

    def test_flow_mode_elides_frames(self, packet_study, flow_study):
        for config in ALL_CONFIGS:
            packet_result = packet_study.experiment(config.name)
            flow_result = flow_study.experiment(config.name)
            assert len(flow_result.records) <= len(packet_result.records)
            if config.name == "dual-stack":
                # The data plane is busiest in dual-stack: records must have
                # moved off the wire and into aggregate flow records.
                assert flow_result.flow_records
                assert len(flow_result.records) < len(packet_result.records)

    def test_packet_mode_emits_no_flow_records(self, packet_study):
        for config in ALL_CONFIGS:
            assert packet_study.experiment(config.name).flow_records == []

    def test_active_phases_identical(self, packet_study, flow_study):
        assert flow_study.port_scan == packet_study.port_scan
        assert flow_study.active_dns == packet_study.active_dns

    def test_end_state_identical(self, packet_study, flow_study):
        assert_same_end_state(flow_study.testbed, packet_study.testbed)

    def test_only_declined_exchanges_stay_on_the_wire(self, flow_study):
        """No frame of a cloud TCP connection is left, and every DNS frame
        left belongs to a lookup the fast path declines by rule: a device's
        first v4 lookups, which queue behind ARP, or a lease probe, a raw
        query sourced from a DHCPv6 lease."""
        latency = flow_study.testbed.link.latency
        for config in ALL_CONFIGS:
            leases: dict = {}
            first_arp_reply: dict = {}
            queries, responses = set(), []
            for record in flow_study.experiment(config.name).records:
                frame = record.frame
                if isinstance(frame.payload, ARP):
                    if frame.payload.op == ARP_REPLY:
                        first_arp_reply.setdefault(frame.dst, record.timestamp)
                    continue
                transport = frame.payload.payload
                if isinstance(transport, TCP):
                    assert not {transport.sport, transport.dport} & {443, 8883}, (
                        f"{config.name}: a cloud TCP frame at {record.timestamp}"
                    )
                if not isinstance(transport, UDP):
                    continue
                message = transport.payload
                if isinstance(message, DHCPv6):
                    leases.setdefault(frame.dst, set()).update(ia.address for ia in message.ia_addresses)
                elif isinstance(message, DNS) and message.is_response:
                    responses.append((frame.dst, transport.dport, message.txid))
                elif isinstance(message, DNS):
                    if isinstance(frame.payload, IPv6):
                        assert frame.payload.src in leases.get(frame.src, ()), (
                            f"{config.name}: a v6 lookup at {record.timestamp} is not a lease probe"
                        )
                    else:
                        assert record.timestamp == first_arp_reply.get(frame.src, -1.0) + latency, (
                            f"{config.name}: a v4 lookup at {record.timestamp} did not wait on ARP"
                        )
                    queries.add((frame.src, transport.sport, message.txid))
            assert all(response in queries for response in responses), config.name

    def test_custom_metadata_tables_identical(self, packet_study, flow_study):
        """Metadata naming six of the seven devices indexes each capture with
        its own MAC table, which must still count the flow records."""
        metadata = metadata_from_profiles(_profiles()[:6])
        packet_analysis = StudyAnalysis(packet_study, metadata)
        flow_analysis = StudyAnalysis(flow_study, metadata)
        for render in (render_table3, render_table6, render_table7):
            assert render(flow_analysis) == render(packet_analysis), (
                f"fidelity changed {render.__name__} under custom metadata"
            )

    @pytest.mark.parametrize("experiment", FLOW_CAPTURE_SHA256)
    def test_flow_capture_is_packet_capture_minus_elided_frames(self, packet_study, flow_study, experiment):
        """The frames the flow path keeps, its FIN teardowns included, are
        the packet path's frames at the very same float timestamps."""
        assert_frames_kept_in_place(
            flow_study.experiment(experiment).records, packet_study.experiment(experiment).records
        )

    @pytest.mark.parametrize("experiment", FLOW_CAPTURE_SHA256)
    def test_capture_matches_pinned_digest(self, flow_study, experiment):
        records = flow_study.experiment(experiment).records
        assert pcap_sha256(records) == FLOW_CAPTURE_SHA256[experiment]

    def test_export_refuses_flow_records(self, flow_study, tmp_path):
        """Captures without the elided exchanges would analyse to other
        tables, so the export writes nothing, not even the directory."""
        with pytest.raises(ValueError, match="flow records"):
            flow_study.export_pcaps(tmp_path / "out")
        assert not (tmp_path / "out").exists()


# A link-loss window spanning the whole experiment: every frame the flow path
# would elide overlaps the window, so every exchange must stay packet-level.
FULL_RUN_LOSS = FaultSchedule(
    name="full-run-loss",
    windows=(FaultWindow("loss", 0.0, 100_000.0, severity=0.1),),
)

# A v6 uplink blackhole for a mid-run slice: flows alive inside the window
# fall back, flows entirely outside it may still take the fast path.
MID_RUN_BLACKHOLE = FaultSchedule(
    name="mid-run-blackhole",
    windows=(FaultWindow("v6-blackhole", 200.0, 400.0),),
)

# An upstream DNS outage over the whole run: every lookup stays on the wire.
FULL_RUN_DNS_OUTAGE = FaultSchedule(
    name="full-run-dns-outage",
    windows=(FaultWindow("dns-outage", 0.0, 100_000.0),),
)


@functools.cache
def _faulted_experiment(fidelity, schedule):
    testbed = Testbed(seed=11, profiles=_profiles(), include_controls=False)
    FaultInjector.attach(testbed, schedule)
    config = with_fidelity(DUAL_STACK, fidelity)
    return testbed, run_connectivity_experiment(testbed, config, checkins=1)


def _is_dns(record) -> bool:
    transport = getattr(record.frame.payload, "payload", None)
    return isinstance(transport, UDP) and 53 in (transport.sport, transport.dport)


class TestFaultFallback:
    def test_full_run_hazard_forces_packet_fidelity(self):
        testbed, result = _faulted_experiment("flow", FULL_RUN_LOSS)
        assert result.flow_records == [], (
            "a loss window covering the run must disable the fast path entirely"
        )

    @pytest.mark.parametrize("schedule", [FULL_RUN_LOSS, MID_RUN_BLACKHOLE, FULL_RUN_DNS_OUTAGE], ids=lambda s: s.name)
    def test_faulted_capture_equivalent(self, schedule):
        packet_testbed, packet_result = _faulted_experiment("packet", schedule)
        flow_testbed, flow_result = _faulted_experiment("flow", schedule)
        packet_index = CaptureIndex(packet_result.records, packet_testbed.mac_table())
        flow_index = CaptureIndex(
            flow_result.records,
            flow_testbed.mac_table(),
            flow_records=flow_result.flow_records,
        )
        assert _snapshot(flow_index) == _snapshot(packet_index)
        assert_same_end_state(flow_testbed, packet_testbed)
        assert_frames_kept_in_place(flow_result.records, packet_result.records)

    def test_dns_outage_keeps_every_lookup_on_the_wire(self):
        _, packet_result = _faulted_experiment("packet", FULL_RUN_DNS_OUTAGE)
        _, flow_result = _faulted_experiment("flow", FULL_RUN_DNS_OUTAGE)
        packet_dns = Counter(record for record in packet_result.records if _is_dns(record))
        assert packet_dns
        assert Counter(record for record in flow_result.records if _is_dns(record)) == packet_dns

    def test_full_run_hazard_captures_identical_bytes(self):
        # With the fast path fully suppressed the two fidelities run the very
        # same per-frame simulation — including the loss stream's RNG draws —
        # so even the raw captures match frame for frame.
        _, packet_result = _faulted_experiment("packet", FULL_RUN_LOSS)
        _, flow_result = _faulted_experiment("flow", FULL_RUN_LOSS)
        packet_frames = [(r.timestamp, r.data) for r in packet_result.records]
        flow_frames = [(r.timestamp, r.data) for r in flow_result.records]
        assert flow_frames == packet_frames


def _stateful_firewall_flows(fidelity, config):
    testbed = Testbed(seed=11, profiles=_profiles(), include_controls=False)
    run_connectivity_experiment(testbed, with_fidelity(with_firewall(config, "stateful"), fidelity), checkins=1)
    return testbed.router.firewall._flows


@pytest.mark.parametrize("config", [IPV6_ONLY, IPV6_ONLY_RDNSS, IPV6_ONLY_STATEFUL], ids=lambda c: c.name)
def test_stateful_firewall_stamps_match_packet_fidelity(config):
    """A stateful firewall's flow table ends with the packet run's stamps:
    an elided NTP request refreshes its entry when it would have reached the
    router, one link latency after it was sent."""
    packet_flows = _stateful_firewall_flows("packet", config)
    assert any(key[0] == 17 and key[2] == 123 for key in packet_flows)
    assert _stateful_firewall_flows("flow", config) == packet_flows


def _syn_ack_before_a_collapsed_connection(fidelity):
    """Open a connection the fast path declines (its service answers
    nothing) and, half a link latency later, one it takes, to the same
    endpoint. Returns the first connection's SYN-ACKs and the second's
    frames."""
    apple_tv = [profile for profile in _profiles() if profile.name == "Apple TV"]  # has a GUA in dual-stack
    testbed = Testbed(seed=11, profiles=apple_tv, include_controls=False)
    config = with_fidelity(DUAL_STACK, fidelity)
    records = testbed.start_capture()
    testbed.configure(config)
    (device,) = testbed.devices
    testbed.sim.run(60.0)
    server = as_ipv6("2001:db8:cafe::1")
    testbed.internet.endpoint(server).tcp.listen(9000, lambda request: b"")
    stack = device.stack

    def ignore(_):
        return None

    testbed.sim.schedule(1.0, stack.tcp_request, server, 9000, [b"stall"], ignore, ignore)
    testbed.sim.schedule(1.0 + testbed.link.latency / 2, stack.tcp_request, server, 443, [b"ping"], ignore, ignore)
    testbed.sim.run(2.0)
    syn_acks, collapsible = [], []
    for record in records:
        segment = record.frame.payload.payload
        if not isinstance(segment, TCP):
            continue
        if segment.sport == 9000 and segment.syn and segment.ack_flag:
            syn_acks.append(record)
        if 443 in (segment.sport, segment.dport):
            collapsible.append(record)
    return syn_acks, collapsible


def test_collapsed_connection_draws_the_server_isn_when_its_syn_arrives():
    """The server's ISN comes from one stream shared by every endpoint, so a
    collapsed connection must draw it when its SYN would have arrived, after
    an earlier connection's SYN, or that connection's SYN-ACK changes."""
    packet_syn_acks, packet_collapsible = _syn_ack_before_a_collapsed_connection("packet")
    flow_syn_acks, flow_collapsible = _syn_ack_before_a_collapsed_connection("flow")
    assert len(packet_syn_acks) == 1 and packet_collapsible
    assert flow_collapsible == []
    assert flow_syn_acks == packet_syn_acks


def _ntp_from_outside_the_lan_prefix(fidelity):
    """Send one NTP request from a global address outside the LAN /64: the
    router forwards it, but cannot route the answer back. Returns the
    testbed, its capture and its flow records."""
    apple_tv = [profile for profile in _profiles() if profile.name == "Apple TV"]
    testbed = Testbed(seed=11, profiles=apple_tv, include_controls=False)
    records = testbed.start_capture()
    flow_records = testbed.configure(with_fidelity(DUAL_STACK, fidelity))
    (device,) = testbed.devices
    testbed.sim.run(60.0)

    def send_from_outside():
        # The newest global address is the send path's source for the server.
        outside = device.stack.addrs.add("2001:db8:ffff::5", origin="static", iid_kind="stable")
        outside.tentative = False
        device._ntp_v6()

    testbed.sim.schedule(1.0, send_from_outside)
    testbed.sim.run(2.0)
    return testbed, records, flow_records


def test_ntp_sourced_outside_the_lan_prefix_stays_on_the_wire():
    """An exchange whose answer cannot come back is not clean, so the fast
    path declines it and its request frame is captured as in packet
    fidelity, not summed into a one-sided record."""
    packet_testbed, packet_records, _ = _ntp_from_outside_the_lan_prefix("packet")
    flow_testbed, flow_records, flow_flow_records = _ntp_from_outside_the_lan_prefix("flow")

    def ntp_requests(records):
        return [
            record
            for record in records
            if isinstance(record.frame.payload, IPv6)
            and isinstance(record.frame.payload.payload, UDP)
            and record.frame.payload.payload.dport == 123
        ]

    packet_ntp = ntp_requests(packet_records)
    assert [record.frame.payload.src for record in packet_ntp] == [as_ipv6("2001:db8:ffff::5")]
    assert ntp_requests(flow_records) == packet_ntp
    packet_index = CaptureIndex(packet_records, packet_testbed.mac_table())
    flow_index = CaptureIndex(flow_records, flow_testbed.mac_table(), flow_records=flow_flow_records)
    assert _snapshot(flow_index) == _snapshot(packet_index)
    assert_same_end_state(flow_testbed, packet_testbed)
