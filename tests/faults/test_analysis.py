"""Degradation classification and the fault fleet: worker through report."""

import pytest

from repro.faults.analysis import DeviceObservation, classify_device, run_home_faults
from repro.faults.population import FaultFold, FaultSpec, _faults_unit, run_faults_stream
from repro.faults.schedule import FaultSchedule, FaultWindow
from repro.fleet import run_sharded
from repro.reports import render_faults

DEVICES = ("Behmor Brewer", "Smarter IKettle", "GE Microwave")
SCHEDULE = FaultSchedule.of("t", [FaultWindow("dns-outage", 100.0, 700.0)])


def _obs(**overrides) -> DeviceObservation:
    base = dict(
        device="d",
        functional=True,
        dns_queries=10,
        dns_retries=0,
        dns_timeouts=0,
        dns_failures=0,
        flow_attempts=5,
        flow_successes=5,
        flow_failures=0,
        fallbacks=0,
        last_symptom=None,
        first_success_after=None,
    )
    base.update(overrides)
    return DeviceObservation(**base)


class TestClassifyDevice:
    def test_no_delta_is_unaffected(self):
        assert classify_device(_obs(), _obs(), SCHEDULE) == ("unaffected", None)

    def test_baseline_brick_cannot_be_blamed_on_the_fault(self):
        baseline = _obs(functional=False)
        faulted = _obs(functional=False, dns_timeouts=40, last_symptom=1300.0)
        assert classify_device(baseline, faulted, SCHEDULE) == ("unaffected", None)

    def test_functionality_loss_is_bricked(self):
        faulted = _obs(functional=False, dns_timeouts=12, last_symptom=650.0)
        assert classify_device(_obs(), faulted, SCHEDULE) == ("bricked", None)

    def test_symptoms_confined_to_window_recover_with_ttr(self):
        faulted = _obs(dns_timeouts=12, last_symptom=650.0, first_success_after=1150.0)
        outcome, ttr = classify_device(_obs(), faulted, SCHEDULE)
        assert outcome == "recovered"
        assert ttr == pytest.approx(450.0)

    def test_symptoms_past_last_window_are_degraded(self):
        faulted = _obs(dns_timeouts=12, last_symptom=900.0)
        assert classify_device(_obs(), faulted, SCHEDULE) == ("degraded", None)

    def test_fallback_survival_is_degraded(self):
        faulted = _obs(flow_failures=2, fallbacks=2, last_symptom=650.0, first_success_after=1150.0)
        assert classify_device(_obs(), faulted, SCHEDULE) == ("degraded", None)


def test_run_home_faults_produces_full_grid():
    spec = FaultSpec(
        home_id=0,
        sim_seed=21,
        config_name="dual-stack",
        device_names=DEVICES,
        fault_names=("dns-blackout", "none"),
    )
    summary = run_home_faults(spec)
    assert summary.device_count == len(DEVICES)
    assert len(summary.cells) == len(DEVICES) * 2
    assert dict(summary.injected)["none"] == 0
    assert dict(summary.injected)["dns-blackout"] > 0
    # The "none" schedule is a paired identical run: every cell unaffected.
    assert {cell.outcome for cell in summary.outcomes_for("none")} == {"unaffected"}
    # The blackout clears at 700s, well before the functionality test:
    # devices storm their resolver, then come back.
    blackout = summary.outcomes_for("dns-blackout")
    assert any(cell.dns_retries > 0 for cell in blackout)
    assert all(cell.outcome in ("recovered", "degraded", "unaffected") for cell in blackout)
    assert any(cell.outcome == "recovered" and cell.time_to_recover is not None for cell in blackout)


def test_generate_fault_specs_crosses_homes_with_configs():
    configs = ("dual-stack", "ipv6-only")
    specs = [
        spec
        for index in range(3)
        for spec in _faults_unit(index, seed=5, config_names=configs, fault_names=("uplink-flap",), fidelity="packet")
    ]
    assert len(specs) == 6
    # Common random numbers: the same homes appear under every config.
    by_home = {}
    for spec in specs:
        by_home.setdefault(spec.home_id, set()).add((spec.device_names, spec.sim_seed))
    assert all(len(variants) == 1 for variants in by_home.values())
    with pytest.raises(ValueError):
        run_faults_stream(1, seed=5, config_names=(), fault_names=("uplink-flap",))
    with pytest.raises(ValueError):
        run_faults_stream(1, seed=5, fault_names=())
    with pytest.raises(KeyError):
        run_faults_stream(1, seed=5, fault_names=("meteor-strike",))


def test_fault_fleet_parallel_matches_serial():
    kwargs = dict(seed=31, config_names=("dual-stack",), fault_names=("uplink-flap",))
    serial = run_faults_stream(2, shards=1, **kwargs)
    parallel = run_faults_stream(2, shards=4, **kwargs)
    assert serial == parallel
    assert render_faults(serial) == render_faults(parallel)


def test_aggregate_and_render():
    aggregate = run_faults_stream(2, seed=31, config_names=("dual-stack",), fault_names=("dns-blackout",))
    assert aggregate.completed == 2
    assert aggregate.homes == 2
    cell = aggregate.cell("dual-stack", "dns-blackout")
    sizes = [
        len(spec.device_names)
        for index in range(2)
        for spec in _faults_unit(
            index, seed=31, config_names=("dual-stack",), fault_names=("dns-blackout",), fidelity="packet"
        )
    ]
    assert cell.devices == sum(sizes)
    assert cell.unaffected + cell.recovered + cell.degraded + cell.bricked == cell.devices
    assert cell.dns_retries > 0
    text = render_faults(aggregate)
    assert "dual-stack/dns-blackout" in text
    assert "Extra symptoms" in text
    with pytest.raises(KeyError):
        aggregate.cell("dual-stack", "nope")


def test_aggregate_reports_worker_failures():
    (good,) = _faults_unit(
        0, seed=31, config_names=("dual-stack",), fault_names=("none",), fidelity="packet"
    )
    bad = FaultSpec(
        home_id=99,
        sim_seed=1,
        config_name="dual-stack",
        device_names=("No Such Device",),
        fault_names=("none",),
    )
    units = ((good,), (bad,))
    aggregate = run_sharded(len(units), units.__getitem__, fold=FaultFold(), worker=run_home_faults)
    assert aggregate.completed == 1
    assert len(aggregate.failed) == 1
    assert aggregate.failed[0][0] == 99
    assert "FAILED home 99" in render_faults(aggregate)
