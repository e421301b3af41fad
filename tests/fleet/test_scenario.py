"""Determinism and sampling tests for fleet scenario generation."""

import pytest

from repro.devices import build_inventory
from repro.fleet import SCENARIOS, generate_fleet, get_scenario, ipv6_only_flip
from repro.fleet.scenario import RolloutScenario

FLIP50 = get_scenario("flip50")


class TestDeterminism:
    def test_same_seed_identical_fleet(self):
        first = generate_fleet(12, seed=7, scenario=FLIP50)
        second = generate_fleet(12, seed=7, scenario=FLIP50)
        assert first == second

    def test_different_seed_different_fleet(self):
        first = generate_fleet(12, seed=7, scenario=FLIP50)
        second = generate_fleet(12, seed=8, scenario=FLIP50)
        assert first != second

    def test_fleet_is_prefix_stable(self):
        short = generate_fleet(4, seed=3, scenario=FLIP50)
        long = generate_fleet(20, seed=3, scenario=FLIP50)
        assert long[:4] == short

    def test_scenarios_pair_the_same_population(self):
        # Sweeping scenarios at a fixed seed must compare the SAME homes:
        # identical portfolios and simulator seeds, different configs only.
        a = generate_fleet(6, seed=3, scenario=get_scenario("baseline"))
        b = generate_fleet(6, seed=3, scenario=get_scenario("ipv6-only"))
        assert [h.device_names for h in a] == [h.device_names for h in b]
        assert [h.sim_seed for h in a] == [h.sim_seed for h in b]
        assert all(h.config_name == "dual-stack" for h in a)
        assert all(h.config_name == "ipv6-only" for h in b)

    def test_flip_fractions_are_monotone(self):
        # Common random numbers: a home flipped at a low fraction stays
        # flipped at every higher fraction, so sweep curves are monotone.
        flipped_at = {}
        for percent in (10, 30, 60, 90):
            specs = generate_fleet(40, seed=13, scenario=ipv6_only_flip(percent / 100.0))
            flipped_at[percent] = {s.home_id for s in specs if s.config_name == "ipv6-only"}
        assert flipped_at[10] <= flipped_at[30] <= flipped_at[60] <= flipped_at[90]


class TestSampling:
    def test_homes_draw_valid_unique_devices(self):
        inventory = {profile.name for profile in build_inventory()}
        for spec in generate_fleet(25, seed=11, scenario=FLIP50):
            assert FLIP50.min_devices <= len(spec.device_names) <= FLIP50.max_devices
            assert len(set(spec.device_names)) == len(spec.device_names)
            assert set(spec.device_names) <= inventory

    def test_configs_come_from_the_mix(self):
        allowed = {name for name, _ in FLIP50.config_mix}
        specs = generate_fleet(30, seed=5, scenario=FLIP50)
        assert {spec.config_name for spec in specs} <= allowed

    def test_degenerate_mixes(self):
        assert all(
            spec.config_name == "dual-stack"
            for spec in generate_fleet(10, seed=2, scenario=ipv6_only_flip(0.0))
        )
        assert all(
            spec.config_name == "ipv6-only"
            for spec in generate_fleet(10, seed=2, scenario=ipv6_only_flip(1.0))
        )


class TestScenarioLookup:
    def test_named_scenarios_resolve(self):
        for name in SCENARIOS:
            assert get_scenario(name).name == name

    def test_flip_nn_is_parsed(self):
        scenario = get_scenario("flip37")
        weights = dict(scenario.config_mix)
        assert weights["ipv6-only"] == pytest.approx(0.37)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            get_scenario("flip101")
        with pytest.raises(KeyError):
            get_scenario("nope")

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            RolloutScenario("bad", (("not-a-config", 1.0),))
        with pytest.raises(ValueError):
            RolloutScenario("bad", (("dual-stack", 0.0),))
        with pytest.raises(ValueError):
            ipv6_only_flip(1.5)
