"""Campaign targeting math."""

import pytest

from repro.adversary.analysis import DeviceSusceptibility, HomeSusceptibility
from repro.adversary.campaign import TargetModel, infection_probability, validate_strategy


def device(name, *, kind="eui64", exploitable=True, e64=1, low=0, hit=1):
    return DeviceSusceptibility(
        device=name,
        addr_kind=kind,
        gua_count=e64 + low + hit,
        exploitable=exploitable,
        open_tcp=(8008,) if exploitable else (),
        eui64_entries=e64,
        low_iid_entries=low,
        hitlist_entries=hit,
    )


def home(devices=(), *, immune=False, eui64_space=1000, low_iid_space=500):
    return HomeSusceptibility(
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


def test_validate_strategy():
    assert validate_strategy("hitlist") == "hitlist"
    with pytest.raises(ValueError):
        validate_strategy("quantum")


def test_infection_probability_edges():
    assert infection_probability(0.0, 100) == 0.0
    assert infection_probability(0.5, 0) == 0.0
    assert infection_probability(1.0, 1) == 1.0
    assert infection_probability(0.5, 1) == pytest.approx(0.5)
    assert infection_probability(0.5, 2) == pytest.approx(0.75)
    # monotone in probe count
    assert infection_probability(0.01, 200) > infection_probability(0.01, 100)


def test_sweep_space_is_population_times_prefix_space():
    model = TargetModel(POPULATION, "eui64-sweep")
    assert model.space == 3 * 1000          # immune home's 0 doesn't shrink it
    # only exploitable devices contribute entries
    assert model.probability(0) == pytest.approx(2 / 3000)
    assert model.probability(1) == 0.0      # cam is not exploitable
    assert model.probability(2) == 0.0      # immune
    assert model.susceptible(0) and not model.susceptible(1)
    assert model.memberships() == [(0, True), (1, False), (2, False)]


def test_hitlist_space_counts_all_leaks_plus_background():
    model = TargetModel(POPULATION, "hitlist", hitlist_background=95)
    # 2 leaked (home 0) + 3 leaked (home 1, unexploitable but on the list)
    assert model.space == 5 + 95
    assert model.probability(0) == pytest.approx(2 / 100)
    assert model.probability(1) == 0.0


def test_hitlist_with_no_leaks_has_zero_probability():
    model = TargetModel({0: home([device("tv", hit=0)])}, "hitlist", hitlist_background=1000)
    # nothing local leaked: no background padding, no division artifacts
    assert model.space == 0
    assert model.probability(0) == 0.0
