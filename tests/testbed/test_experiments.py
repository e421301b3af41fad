"""Testbed-level tests on a small device subset (fast enough for CI)."""

import gc

import pytest

from repro.core.capture import CaptureIndex
from repro.devices import build_inventory
from repro.net.packet import Raw
from repro.net.pcap import PcapReader
from repro.stack.config import ALL_CONFIGS, DUAL_STACK, with_fidelity
from repro.testbed import Testbed, run_connectivity_experiment
from repro.testbed.study import DEFERRED_FULL_COLLECTION, observed_domains, profiles_by_name, run_full_study

SUBSET = [
    "Samsung Fridge",
    "Google Home Mini",
    "Apple TV",
    "IKEA Gateway",
    "Echo Dot 3rd gen",
    "Wemo Plug",
    "Philips Hue Hub",
]


@pytest.fixture(scope="module")
def mini_study():
    profiles = [p for p in build_inventory() if p.name in SUBSET]
    return run_full_study(seed=5, testbed=Testbed(seed=5, profiles=profiles))


class TestExperimentRunner:
    def test_all_six_configs_run(self, mini_study):
        assert set(mini_study.experiments) == {c.name for c in ALL_CONFIGS}

    def test_functionality_results_complete(self, mini_study):
        for result in mini_study.experiments.values():
            assert set(result.functionality) == set(SUBSET)

    def test_ipv4_only_everything_works(self, mini_study):
        assert all(mini_study.experiment("ipv4-only").functionality.values())

    def test_ipv6_only_selective_failure(self, mini_study):
        functionality = mini_study.experiment("ipv6-only").functionality
        assert functionality["Google Home Mini"]
        assert functionality["Apple TV"]
        assert not functionality["Samsung Fridge"]
        assert not functionality["Wemo Plug"]

    def test_capture_nonempty_and_chronological(self, mini_study):
        for result in mini_study.experiments.values():
            assert result.records
            stamps = [r.timestamp for r in result.records]
            assert stamps == sorted(stamps)

    def test_experiments_do_not_leak_across_runs(self, mini_study):
        """An IPv4-only capture must contain no routable-IPv6 traffic."""
        index = CaptureIndex(mini_study.experiment("ipv4-only").records, mini_study.mac_table)
        assert not index.internet_data_devices(6)
        assert not [q for q in index.dns_queries if q.family == 6]


class TestPcapExport:
    def test_exported_pcap_is_parseable(self, mini_study, tmp_path):
        paths = mini_study.export_pcaps(tmp_path)
        assert len(paths) == 6
        with open(paths[0], "rb") as stream:
            reader = PcapReader(stream)
            records = list(reader)
        assert len(records) == len(mini_study.experiment(paths[0].stem).records)


class TestActiveDns:
    def test_observed_domains_probed(self, mini_study):
        names = observed_domains(mini_study)
        assert names
        assert names <= set(mini_study.active_dns)

    def test_probe_consistency_with_registry(self, mini_study):
        registry = mini_study.testbed.registry
        for name, probe in mini_study.active_dns.items():
            record = registry.lookup(name)
            expected = bool(record and record.has_aaaa)
            assert probe.has_aaaa == expected, name


class TestPortScanner:
    def test_scan_results(self, mini_study):
        scan = mini_study.port_scan
        assert scan is not None
        # Fridge: symmetric 8080 plus the three v6-only ports
        assert 8080 in scan.tcp_v4.get("Samsung Fridge", set())
        assert {8080, 37993, 46525, 46757} <= scan.tcp_v6.get("Samsung Fridge", set())
        assert scan.v6_only_tcp("Samsung Fridge") == {37993, 46525, 46757}
        # Hue: port 80 only over IPv4
        assert scan.v4_only_tcp("Philips Hue Hub") == {80}

    def test_no_phantom_open_ports(self, mini_study):
        scan = mini_study.port_scan
        assert "Wemo Plug" not in scan.tcp_v4 or not scan.tcp_v4["Wemo Plug"]

    def test_discovery_covers_v6_devices(self, mini_study):
        scan = mini_study.port_scan
        assert "Samsung Fridge" in scan.scanned_v6
        assert "Wemo Plug" not in scan.scanned_v6  # no IPv6 at all
        assert "Wemo Plug" in scan.scanned_v4


class TestDeterminism:
    def test_same_seed_same_capture(self):
        profiles = [p for p in build_inventory() if p.name in ("Wemo Plug", "Philips Hue Hub")]
        runs = []
        for _ in range(2):
            testbed = Testbed(
                seed=99, profiles=[p for p in build_inventory() if p.name in ("Wemo Plug", "Philips Hue Hub")]
            )
            result = run_connectivity_experiment(testbed, DUAL_STACK)
            runs.append([(r.timestamp, r.data) for r in result.records])
        assert runs[0] == runs[1]


class TestSharedPayloads:
    def test_app_data_records_are_one_object_per_length(self):
        """Every zero-bodied TLS application-data record of one length is one
        object, whether a device sent it or a cloud service echoed it."""
        testbed = Testbed(seed=23, profiles=profiles_by_name(["Echo Dot 3rd gen", "Apple TV"]), include_controls=False)
        result = run_connectivity_experiment(testbed, with_fidelity(DUAL_STACK, "packet"), checkins=1)
        payloads = [
            layer.data
            for record in result.records
            for layer in record.frame.layers()
            if isinstance(layer, Raw) and layer.data[:1] == b"\x17"
        ]
        lengths = {len(payload) for payload in payloads}
        assert len(payloads) > len(lengths) > 1
        assert len({id(payload) for payload in payloads}) == len(lengths)


class TestCollection:
    """A study makes no cyclic garbage and starts no full collection but its entry one."""

    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    def test_study_leaves_no_cyclic_garbage(self, fidelity):
        testbed = Testbed(seed=5, profiles=profiles_by_name(SUBSET))
        enabled = gc.isenabled()
        gc.disable()
        try:
            study = run_full_study(seed=5, testbed=testbed, fidelity=fidelity)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert set(study.experiments) == {c.name for c in ALL_CONFIGS}

    def test_one_full_collection_and_thresholds_restored(self, monkeypatch):
        caller = gc.get_threshold()
        custom = (600, 9, 8)
        full_collections, seen = [], []

        def count_full(phase, info):
            if phase == "start" and info["generation"] == 2:
                full_collections.append(gc.get_threshold())

        def failing_experiment(testbed, config):
            seen.append(gc.get_threshold())
            raise RuntimeError("experiment failed")

        testbed = Testbed(seed=5, profiles=profiles_by_name(SUBSET))
        gc.set_threshold(*custom)
        gc.callbacks.append(count_full)
        try:
            run_full_study(seed=5, testbed=testbed, fidelity="flow")
            assert full_collections == [custom]  # the entry collection only
            assert gc.get_threshold() == custom

            monkeypatch.setattr("repro.testbed.study.run_connectivity_experiment", failing_experiment)
            with pytest.raises(RuntimeError, match="experiment failed"):
                run_full_study(seed=5, testbed=Testbed(seed=5, profiles=profiles_by_name(SUBSET[:1])))
            assert seen == [(600, 9, DEFERRED_FULL_COLLECTION)]  # the young generations still collect
            assert gc.get_threshold() == custom
        finally:
            gc.callbacks.remove(count_full)
            gc.set_threshold(*caller)
