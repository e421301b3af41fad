"""Worm targeting math: the strategies' target spaces and the hit probability."""

import pytest

from repro.adversary.worm import WormParams, infection_probability, run_worm, target_space
from repro.exposure import DeviceExposure, HomeExposure


def device(name, *, kind="eui64", exploitable=True, e64=1, low=0, hit=1):
    return DeviceExposure(
        device=name,
        addr_kind=kind,
        gua_count=e64 + low + hit,
        discoverable=e64 + low > 0,
        responsive=exploitable,
        reachable=exploitable,
        open_tcp=(8008,) if exploitable else (),
        open_udp=(),
        eui64_entries=e64,
        low_iid_entries=low,
        hitlist_entries=hit,
    )


def home(devices=(), *, immune=False, eui64_space=1000, low_iid_space=500):
    return HomeExposure(
        config_name="dual-stack",
        firewall="open",
        immune=immune,
        eui64_space=0 if immune else eui64_space,
        low_iid_space=0 if immune else low_iid_space,
        probes_sent=0,
        wan_dropped=0,
        passed_pinhole=0,
        fault_events=0,
        devices=tuple(devices),
    )


POPULATION = {
    0: home([device("tv", e64=2, hit=2)]),
    1: home([device("cam", exploitable=False, e64=3, hit=3)]),
    2: home(immune=True),
}


def test_infection_probability_edges():
    assert infection_probability(0.0, 100) == 0.0
    assert infection_probability(0.5, 0) == 0.0
    assert infection_probability(1.0, 1) == 1.0
    assert infection_probability(0.5, 1) == pytest.approx(0.5)
    assert infection_probability(0.5, 2) == pytest.approx(0.75)
    # monotone in probe count
    assert infection_probability(0.01, 200) > infection_probability(0.01, 100)


def test_sweep_space_is_population_times_prefix_space():
    assert target_space(POPULATION, "eui64-sweep", 95) == 3 * 1000   # immune home's 0 doesn't shrink it
    assert target_space(POPULATION, "low-iid", 95) == 3 * 500
    # only exploitable devices contribute entries: cam is not, home 2 is immune
    assert [POPULATION[home_id].entries("eui64-sweep") for home_id in range(3)] == [2, 0, 0]


def test_hitlist_space_counts_all_leaks_plus_background():
    # 2 leaked (home 0) + 3 leaked (home 1, unexploitable but on the list)
    assert target_space(POPULATION, "hitlist", 95) == 5 + 95
    assert [POPULATION[home_id].entries("hitlist") for home_id in range(3)] == [2, 0, 0]


def test_hitlist_with_no_leaks_has_zero_probability():
    population = {0: home([device("tv", hit=0)])}
    # nothing local leaked: no background padding, no division artifacts
    assert target_space(population, "hitlist", 1000) == 0
    params = WormParams(strategy="hitlist", scan_rate=1e9, hitlist_background=1000)
    assert run_worm(population, params, seed=1).events == ()
