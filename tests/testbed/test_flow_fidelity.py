"""Equivalence tests for the hybrid-fidelity flow fast path.

The contract (DESIGN.md §13): a ``flow``-fidelity run must produce the same
*analysis* output as the ``packet``-fidelity run bit for bit — same flows,
same byte totals, same address-usage observations, same DNS/NDP/DHCP event
streams — while eliding the steady-state data-plane frames from the wire.
Fault windows overlapping a flow's lifetime force that flow back to packet
fidelity, so faulted runs stay equivalent too.
"""

from collections import Counter

import pytest

from repro.core.analysis import StudyAnalysis
from repro.core.capture import CaptureIndex
from repro.core.meta import metadata_from_profiles
from repro.devices import build_inventory
from repro.faults.inject import FaultInjector
from repro.faults.schedule import FaultSchedule, FaultWindow
from repro.reports import render_table3, render_table6, render_table7
from repro.stack.config import ALL_CONFIGS, DUAL_STACK, with_fidelity
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
    """Everything the analysis layer reads from an index, canonically ordered."""
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
            )
            for flow in index.flows
        ),
        "addresses": {
            device: {
                str(addr): (obs.dad_seen, obs.used_for_data, obs.used_for_dns, obs.used_at_all)
                for addr, obs in obs_map.items()
            }
            for device, obs_map in index.addresses.items()
        },
        "ntp_v6_devices": sorted(index.ntp_v6_devices),
        "dns_queries": sorted(
            (q.device, q.name, q.qtype, q.family, str(q.src_ip)) for q in index.dns_queries
        ),
        "dns_responses": sorted(
            (r.device, r.name, r.qtype, r.family, r.rcode, tuple(map(str, r.answers)))
            for r in index.dns_responses
        ),
        "ndp_events": sorted(
            (e.device, e.kind, str(e.target), str(e.src_ip)) for e in index.ndp_events
        ),
        "dhcp_events": sorted(
            (e.device, e.protocol, e.msg_type, e.stateful) for e in index.dhcp_events
        ),
        "decode_errors": index.decode_errors,
    }


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
    "ipv4-only": "b02c0bb5a76dc0a2e612ec61f91748b58d922b77e06d369347b7a43403051545",
    "ipv6-only": "50b51563346609fd2d97bc8bcfa713a0e5df519979e52660891b0459c9bd773e",
    "ipv6-only-rdnss": "b02abcfce6ce77d87632a8fb3d37490b45df8c15e29f2fb21ffb7eeb72559bd6",
    "ipv6-only-stateful": "7cb0bab58d2eb0553d955ffabebb8ff73a199f1b2d4902669bc47fb78ba8b143",
    "dual-stack": "f004274ace0731559b267122140b5b888395b643550568da9ca3b6f71f671e7b",
    "dual-stack-stateful": "c06f1158baee3ba952dacf9dd71e39ce3a5ba744b7b0c3aa8c8a0dc11d93604f",
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


def _faulted_experiment(fidelity, schedule):
    testbed = Testbed(seed=11, profiles=_profiles(), include_controls=False)
    FaultInjector.attach(testbed, schedule)
    config = with_fidelity(DUAL_STACK, fidelity)
    return testbed, run_connectivity_experiment(testbed, config, checkins=1)


class TestFaultFallback:
    def test_full_run_hazard_forces_packet_fidelity(self):
        testbed, result = _faulted_experiment("flow", FULL_RUN_LOSS)
        assert result.flow_records == [], (
            "a loss window covering the run must disable the fast path entirely"
        )

    @pytest.mark.parametrize("schedule", [FULL_RUN_LOSS, MID_RUN_BLACKHOLE], ids=lambda s: s.name)
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

    def test_full_run_hazard_captures_identical_bytes(self):
        # With the fast path fully suppressed the two fidelities run the very
        # same per-frame simulation — including the loss stream's RNG draws —
        # so even the raw captures match frame for frame.
        _, packet_result = _faulted_experiment("packet", FULL_RUN_LOSS)
        _, flow_result = _faulted_experiment("flow", FULL_RUN_LOSS)
        packet_frames = [(r.timestamp, r.data) for r in packet_result.records]
        flow_frames = [(r.timestamp, r.data) for r in flow_result.records]
        assert flow_frames == packet_frames
