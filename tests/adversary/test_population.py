"""Spec generation, susceptibility workers, the epidemic fold, fault composition."""

from dataclasses import replace

import pytest

from repro.adversary import (
    AdversaryFold,
    AdversarySpec,
    WormParams,
    run_adversary_stream,
    run_home_susceptibility,
    run_worm,
)
from repro.adversary.population import DEFAULT_SETTLE, _adversary_unit
from repro.fleet import get_scenario
from repro.fleet.shard import run_sharded, run_unit
from repro.reports import render_adversary

# A home built around the one EUI-64 + WAN-open-TCP device in the inventory
# sample: Google TV (port 8008, TV category, so pinhole mode maps it too).
DEVICES = ("Google TV", "Samsung TV", "Nest Camera")

PARAMS = WormParams(strategy="eui64-sweep", scan_rate=2000.0, dt=30.0, horizon=600.0)


def spec(home_id=0, firewall="open", fault="none", config="dual-stack"):
    return AdversarySpec(home_id, 7, config, firewall, fault, DEVICES)


def specs_for(homes, *, seed, scenario="baseline", firewalls=("open", "stateful")):
    """Every home's (home x firewall) specs, as the stream generates them."""
    return [
        spec
        for index in range(homes)
        for spec in _adversary_unit(
            index,
            seed=seed,
            scenario=get_scenario(scenario),
            firewalls=firewalls,
            fault_name="none",
            settle=DEFAULT_SETTLE,
            fidelity="packet",
        )
    ]


def outbreak(results, *, seed, scenario_name=""):
    """Fold one home's retained susceptibility results into the epidemic aggregate."""
    fold = AdversaryFold(params=PARAMS, seed=seed, scenario_name=scenario_name)
    return fold.finalize(fold.add(fold.empty(), results))


def test_spec_generation_is_deterministic_and_paired():
    a = specs_for(3, seed=11)
    b = specs_for(3, seed=11)
    assert a == b
    assert len(a) == 6
    open_specs = [s for s in a if s.firewall == "open"]
    stateful_specs = [s for s in a if s.firewall == "stateful"]
    for o, s in zip(open_specs, stateful_specs):
        assert (o.home_id, o.sim_seed, o.device_names) == (s.home_id, s.sim_seed, s.device_names)


def test_spec_generation_keeps_ipv4_only_homes():
    specs = specs_for(8, seed=3, scenario="legacy", firewalls=("open",))
    configs = {s.config_name for s in specs}
    assert "ipv4-only" in configs       # immune homes stay in the population


def test_spec_generation_validates_inputs():
    with pytest.raises(ValueError):
        run_adversary_stream(2, seed=1, params=PARAMS, firewalls=("bogus",))
    with pytest.raises(ValueError):
        run_adversary_stream(2, seed=1, params=PARAMS, firewalls=())
    with pytest.raises(KeyError):
        run_adversary_stream(2, seed=1, params=PARAMS, fault_name="not-a-preset")
    with pytest.raises(KeyError):
        run_adversary_stream(2, seed=1, params=PARAMS, scenario="not-a-scenario")


def test_ipv4_only_home_is_immune_not_an_error():
    summary = run_home_susceptibility(spec(config="ipv4-only"))
    assert summary.immune
    assert summary.devices == ()
    assert not summary.susceptible("eui64-sweep")


def test_susceptibility_gates_on_firewall_mode():
    open_home = run_home_susceptibility(spec(firewall="open"))
    stateful_home = run_home_susceptibility(spec(firewall="stateful"))
    pinhole_home = run_home_susceptibility(spec(firewall="pinhole"))

    # the EUI-64 TV's WAN-open port makes the home susceptible when inbound
    # is allowed (open) or UPnP-mapped (pinhole), never behind stateful
    assert open_home.entries("eui64-sweep") >= 1
    assert pinhole_home.entries("eui64-sweep") >= 1
    assert stateful_home.entries("eui64-sweep") == 0
    assert stateful_home.wan_dropped > 0
    assert pinhole_home.passed_pinhole > 0

    # the privacy-addressed Samsung TV leaks into the hitlist but is
    # invisible to sweeps: address policy gates the strategy, not the home
    assert open_home.entries("hitlist") >= 1
    samsung = next(d for d in open_home.devices if d.device == "Samsung TV")
    assert samsung.addr_kind == "privacy"
    assert samsung.exploitable and samsung.eui64_entries == 0 and samsung.hitlist_entries >= 1


def test_fault_schedule_changes_infection_trajectory():
    """The repro.faults composition contract: an RA outage over the settle
    window suppresses SLAAC, so the same seeded home that an EUI-64 worm
    compromises when healthy is unreachable when faulted."""
    clean = run_home_susceptibility(spec())
    faulted = run_home_susceptibility(replace(spec(), fault_name="ra-settle-outage"))

    assert faulted.fault_events > 0 and clean.fault_events == 0
    assert clean.entries("eui64-sweep") >= 1
    assert faulted.entries("eui64-sweep") == 0

    healthy_timeline = run_worm([clean], PARAMS, seed=5)
    faulted_timeline = run_worm([faulted], PARAMS, seed=5)
    assert healthy_timeline.initial_susceptible == 1
    assert faulted_timeline.initial_susceptible == 0
    assert healthy_timeline.compromised == 1
    assert faulted_timeline.compromised == 0
    assert healthy_timeline.curve != faulted_timeline.curve


@pytest.fixture(scope="module")
def small_fleet():
    return run_unit(lambda index: tuple(spec(firewall=fw) for fw in ("open", "stateful")), 0, run_home_susceptibility, None)


def test_aggregate_runs_one_outbreak_per_firewall(small_fleet):
    aggregate = outbreak(small_fleet, seed=5, scenario_name="test")
    assert aggregate.total_runs == 2 and not aggregate.failed
    open_outcome = aggregate.outcome_for("open")
    stateful_outcome = aggregate.outcome_for("stateful")
    assert open_outcome.susceptible_homes == 1
    assert stateful_outcome.susceptible_homes == 0
    assert open_outcome.timeline.compromised == 1
    assert stateful_outcome.timeline.compromised == 0
    kinds = {k.kind for k in open_outcome.by_addr_kind}
    assert "eui64" in kinds and "privacy" in kinds
    with pytest.raises(KeyError):
        aggregate.outcome_for("bogus")


def test_aggregate_and_render_are_deterministic(small_fleet):
    a = outbreak(small_fleet, seed=5, scenario_name="test")
    b = outbreak(small_fleet, seed=5, scenario_name="test")
    assert a == b
    text = render_adversary(a)
    assert text == render_adversary(b)
    assert "Worm outbreak (eui64-sweep" in text
    assert "Entry surface by address kind" in text


def test_parallel_matches_serial_byte_for_byte():
    kwargs = dict(seed=11, params=PARAMS, firewalls=("open", "stateful"))
    serial = run_adversary_stream(2, shards=1, **kwargs)
    parallel = run_adversary_stream(2, shards=2, **kwargs)
    assert serial == parallel
    assert render_adversary(serial) == render_adversary(parallel)


def test_aggregate_reports_failures():
    units = ((AdversarySpec(1, 7, "dual-stack", "open", "none", ("No Such Device",)),),)
    aggregate = run_sharded(
        1, units.__getitem__, fold=AdversaryFold(params=PARAMS, seed=1), worker=run_home_susceptibility
    )
    assert aggregate.completed == 0
    assert aggregate.failed[0][:2] == (1, "open")
    assert "FAILED home 1" in render_adversary(aggregate)
