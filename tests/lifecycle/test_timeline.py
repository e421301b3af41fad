"""Timeline engine: determinism, churn, wave composition, firmware history."""

import dataclasses

import pytest

from repro.lifecycle import run_lifecycle_stream
from repro.lifecycle.timeline import MIN_HOME_SIZE, EpochSpec, LifecycleParams, build_timeline


def plan_homes(homes, *, seed, params):
    return [build_timeline(index, seed, params) for index in range(homes)]


def flatten(timelines):
    """The epoch specs of every timeline, home by home."""
    return [spec for timeline in timelines for spec in timeline.epochs]


class TestParams:
    def test_defaults_valid(self):
        LifecycleParams()

    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            LifecycleParams(epochs=0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="leave_rate"):
            LifecycleParams(leave_rate=1.5)
        with pytest.raises(ValueError, match="join_rate"):
            LifecycleParams(join_rate=-0.1)

    def test_rejects_unknown_wave(self):
        with pytest.raises(KeyError, match="unknown rollout wave"):
            LifecycleParams(wave="warp")

    def test_rejects_unknown_fault(self):
        with pytest.raises(KeyError, match="unknown fault preset"):
            LifecycleParams(fault_name="solar-flare")


class TestDeterminism:
    def test_same_inputs_same_timeline(self):
        params = LifecycleParams(epochs=5)
        assert build_timeline(3, 42, params) == build_timeline(3, 42, params)

    def test_seed_changes_timeline(self):
        params = LifecycleParams(epochs=5)
        assert build_timeline(3, 42, params) != build_timeline(3, 43, params)

    def test_prefix_stability(self):
        """Growing the fleet never rewrites existing homes' timelines."""
        params = LifecycleParams(epochs=4)
        small = plan_homes(3, seed=9, params=params)
        large = plan_homes(6, seed=9, params=params)
        assert large[:3] == small

    def test_waves_share_local_event_streams(self):
        """Churn and firmware draws never see the wave: two waves describe the
        same homes undergoing the same local events (common random numbers)."""
        base = LifecycleParams(epochs=4, wave="none")
        cut = LifecycleParams(epochs=4, wave="flash-cut")
        for index in range(4):
            control = build_timeline(index, 17, base)
            treated = build_timeline(index, 17, cut)
            for a, b in zip(control.epochs, treated.epochs):
                assert a.device_names == b.device_names
                assert a.firmware == b.firmware
                assert a.sim_seed == b.sim_seed

    def test_horizon_is_a_prefix(self):
        """A shorter horizon is a prefix of a longer one, epoch for epoch."""
        short = build_timeline(1, 23, LifecycleParams(epochs=3))
        long = build_timeline(1, 23, LifecycleParams(epochs=6))
        assert long.epochs[:3] == short.epochs


class TestChurn:
    def test_home_never_shrinks_below_floor(self):
        params = LifecycleParams(epochs=10, leave_rate=1.0, join_rate=0.0)
        for index in range(5):
            timeline = build_timeline(index, 31, params)
            for spec in timeline.epochs:
                assert spec.size >= MIN_HOME_SIZE

    def test_joins_draw_from_inventory_pool(self):
        params = LifecycleParams(epochs=8, leave_rate=0.0, join_rate=1.0, max_devices=4)
        timeline = build_timeline(0, 5, params)
        sizes = [spec.size for spec in timeline.epochs]
        assert sizes == sorted(sizes)  # nothing leaves, one joins per epoch
        assert sizes[-1] > sizes[0]
        for spec in timeline.epochs:
            assert len(set(spec.device_names)) == len(spec.device_names)

    def test_zero_rates_freeze_membership(self):
        params = LifecycleParams(epochs=6, leave_rate=0.0, join_rate=0.0, update_rate=0.0)
        timeline = build_timeline(2, 11, params)
        names = {spec.device_names for spec in timeline.epochs}
        assert len(names) == 1
        assert all(spec.firmware == () for spec in timeline.epochs)


class TestWaveComposition:
    def test_flash_cut_transitions_everyone_at_epoch_two(self):
        params = LifecycleParams(epochs=4, wave="flash-cut")
        for timeline in plan_homes(5, seed=3, params=params):
            assert timeline.first_transition == 2
            configs = [spec.config_name for spec in timeline.epochs]
            assert configs == ["dual-stack", "dual-stack", "ipv6-only", "ipv6-only"]
            assert [spec.transitioned for spec in timeline.epochs] == [False, False, True, False]

    def test_fault_fires_only_in_transition_epochs(self):
        params = LifecycleParams(epochs=4, wave="flash-cut", fault_name="ra-blackout")
        timeline = build_timeline(0, 3, params)
        for spec in timeline.epochs:
            assert (spec.fault_name == "ra-blackout") == spec.transitioned

    def test_control_wave_never_faults(self):
        params = LifecycleParams(epochs=4, wave="none", fault_name="ra-blackout")
        timeline = build_timeline(0, 3, params)
        assert all(spec.fault_name == "none" for spec in timeline.epochs)


class TestFirmwareHistory:
    def test_history_is_cumulative_and_ordered(self):
        params = LifecycleParams(epochs=8, update_rate=1.0, leave_rate=0.0, join_rate=0.0)
        timeline = build_timeline(0, 13, params)
        previous: dict[str, tuple[str, ...]] = {}
        for spec in timeline.epochs:
            current = dict(spec.firmware)
            for name, revisions in previous.items():
                # applied revisions never disappear or reorder
                assert current.get(name, ())[: len(revisions)] == revisions
            previous = current
        # with update_rate=1 every device with a pending path got updates
        assert previous, "expected at least one firmware update"

    def test_firmware_only_tracks_present_members(self):
        params = LifecycleParams(epochs=8, update_rate=1.0, leave_rate=0.5)
        for index in range(4):
            timeline = build_timeline(index, 29, params)
            for spec in timeline.epochs:
                members = set(spec.device_names)
                assert all(name in members for name, _ in spec.firmware)


class TestSpecs:
    def test_flatten_order_matches_sort_key(self):
        """Homes in index order, each home's epochs in time order."""
        params = LifecycleParams(epochs=3)
        specs = flatten(plan_homes(3, seed=1, params=params))
        keys = [(spec.home_id, spec.epoch) for spec in specs]
        assert keys == sorted(keys)
        assert len(specs) == 9

    def test_specs_are_picklable(self):
        import pickle

        params = LifecycleParams(epochs=2)
        specs = flatten(plan_homes(1, seed=1, params=params))
        assert pickle.loads(pickle.dumps(specs)) == specs

    def test_negative_homes_rejected(self):
        with pytest.raises(ValueError, match="homes"):
            run_lifecycle_stream(-1, seed=1, params=LifecycleParams())

    def test_spec_is_frozen(self):
        spec = EpochSpec(home_id=0, epoch=0, sim_seed=1, config_name="dual-stack", device_names=("Fire TV",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.epoch = 1
