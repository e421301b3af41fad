"""Worm epidemic loop: determinism, SIR accounting, parameter effects."""

import pytest

from repro.adversary.worm import EXTERNAL_SOURCE, WormParams, run_worm
from tests.adversary.test_campaign import device, home


def population(n=8):
    """n homes, every one exploitable via every strategy."""
    return {i: home([device(f"tv{i}", e64=1, hit=1)]) for i in range(n)}


FAST = WormParams(strategy="eui64-sweep", scan_rate=50_000.0, dt=30.0, horizon=1800.0)

# ~17% per-home infection chance per tick from one vantage: slow enough that
# the bootstrap only seeds a home or two before peers take over the spread.
SLOW = WormParams(strategy="eui64-sweep", scan_rate=50.0, dt=30.0, horizon=3600.0)


def test_worm_params_validation():
    with pytest.raises(ValueError):
        WormParams(strategy="bogus")
    with pytest.raises(ValueError):
        WormParams(seeds=0)
    with pytest.raises(ValueError):
        WormParams(recovery=0.0)
    with pytest.raises(ValueError):
        WormParams(dt=-1.0)
    assert WormParams(recovery=600.0, dt=30.0).removal_probability == pytest.approx(0.05)
    assert WormParams().removal_probability == 0.0


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["scan_rate", "dt", "horizon", "recovery"])
def test_worm_params_reject_non_finite(field, value):
    # nan passes every < / <= bound check, and an infinite horizon never ends
    # the epidemic loop.
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        WormParams(**{field: value})


def test_run_worm_is_deterministic():
    a = run_worm(population(), FAST, seed=3)
    b = run_worm(population(), FAST, seed=3)
    assert a == b
    assert a.population == 8 and a.initial_susceptible == 8


def test_worm_spreads_peer_to_peer():
    timeline = run_worm(population(), SLOW, seed=3)
    assert timeline.compromised == 8
    # bootstrap stops after the first seed; the rest fell to peers
    external = [e for e in timeline.events if e.source == EXTERNAL_SOURCE]
    peers = [e for e in timeline.events if e.source != EXTERNAL_SOURCE]
    assert len(external) >= 1
    assert timeline.peer_spread == len(peers) >= 1
    # every peer source was itself compromised before its victim
    fell_at = {e.home_id: e.time for e in timeline.events}
    for event in peers:
        assert fell_at[event.source] < event.time
    # curve is monotone in compromised and conserves the population
    for point in timeline.curve:
        assert point.susceptible + point.infected + point.removed + point.immune == 8


def test_time_to_fraction_quantiles():
    timeline = run_worm(population(), SLOW, seed=3)
    t50 = timeline.time_to_fraction(0.5)
    t90 = timeline.time_to_fraction(0.9)
    t_all = timeline.time_to_fraction(1.0)
    assert timeline.first_compromise <= t50 <= t90 <= t_all
    assert timeline.compromised_fraction == 1.0
    with pytest.raises(ValueError):
        timeline.time_to_fraction(0.0)
    with pytest.raises(ValueError):
        timeline.time_to_fraction(1.5)


def test_more_vantages_never_slow_the_epidemic():
    slow = WormParams(strategy="eui64-sweep", scan_rate=2_000.0, dt=30.0, horizon=3600.0)
    fast = WormParams(strategy="eui64-sweep", scan_rate=50_000.0, dt=30.0, horizon=3600.0)
    a = run_worm(population(), slow, seed=9)
    b = run_worm(population(), fast, seed=9)
    assert b.compromised >= a.compromised


def test_recovery_removes_scanners_but_keeps_them_compromised():
    params = WormParams(strategy="eui64-sweep", scan_rate=50_000.0, dt=30.0, horizon=3600.0, recovery=120.0)
    timeline = run_worm(population(), params, seed=3)
    assert timeline.final.removed > 0
    # removed homes still count as compromised
    assert timeline.final.compromised == timeline.final.infected + timeline.final.removed
    assert timeline.compromised == len(timeline.events)


def test_empty_and_immune_populations_stay_flat():
    empty = run_worm({}, FAST, seed=1)
    assert empty.compromised == 0 and empty.time_to_fraction(0.5) is None

    immune = run_worm({0: home(immune=True), 1: home([device("cam", exploitable=False)])}, FAST, seed=1)
    assert immune.initial_susceptible == 0
    assert immune.compromised == 0
    assert immune.events == ()


def test_seeds_bound_the_bootstrap_campaign():
    # With an overwhelming rate and seeds=3, the external vantage keeps
    # scanning until 3 homes are down (all fall on the first tick here).
    params = WormParams(strategy="hitlist", scan_rate=1e9, dt=30.0, horizon=60.0, seeds=3, hitlist_background=0)
    timeline = run_worm(population(4), params, seed=2)
    assert timeline.compromised == 4
    assert timeline.first_compromise == 30.0
