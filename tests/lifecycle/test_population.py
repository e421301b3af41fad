"""Lifecycle integration: trajectories, recovery flips, shard-invariance.

The pinned scenario below is the ISSUE's acceptance narrative: a staged
IPv6-only rollout pushes the brick rate up for v4-only profiles while
dual-stack profiles ride through unaffected, and a ``v6-stack`` firmware
update mid-timeline flips a bricked device back to functional.
"""

import pytest

from repro.fleet.shard import run_sharded, run_unit
from repro.lifecycle import LifecycleFold, LifecycleParams, run_home_epoch, run_lifecycle_stream
from repro.lifecycle.timeline import EpochSpec
from repro.reports import render_lifecycle

# One hand-built home: "Nest Hub Max" is stock dual-stack capable (v6-ready),
# "Fire TV" is v4-only until its vendor ships the v6-stack firmware.
DEVICES = ("Nest Hub Max", "Fire TV")


def _pinned_specs() -> list[EpochSpec]:
    """dual-stack (epochs 0-1) -> ipv6-only (2-3); Fire TV updates at 3."""
    specs = []
    for epoch in range(4):
        config = "dual-stack" if epoch < 2 else "ipv6-only"
        firmware = (("Fire TV", ("v6-stack",)),) if epoch >= 3 else ()
        specs.append(
            EpochSpec(
                home_id=0,
                epoch=epoch,
                sim_seed=1000 + epoch,
                config_name=config,
                device_names=DEVICES,
                firmware=firmware,
                transitioned=(epoch == 2),
            )
        )
    return specs


def device_trajectory(results, device: str) -> tuple[tuple[int, bool], ...]:
    """One device's (epoch, functional) trajectory across a home's epoch results."""
    present = ((r.spec.epoch, r.summary) for r in results if device in r.summary.devices)
    return tuple(sorted((epoch, device in summary.functional) for epoch, summary in present))


@pytest.fixture(scope="module")
def pinned_fleet():
    return run_unit(lambda index: _pinned_specs(), 0, run_home_epoch, None)


@pytest.fixture(scope="module")
def pinned_aggregate(pinned_fleet):
    fold = LifecycleFold(wave_name="pinned")
    return fold.finalize(fold.add(fold.empty(), pinned_fleet))


class TestPinnedRollout:
    def test_v4_only_profile_bricks_at_transition(self, pinned_fleet):
        assert device_trajectory(pinned_fleet, "Fire TV") == (
            (0, True),
            (1, True),
            (2, False),   # ISP moved the home to IPv6-only: bricked
            (3, True),    # v6-stack firmware shipped: recovered
        )

    def test_dual_stack_profile_unaffected(self, pinned_fleet):
        assert device_trajectory(pinned_fleet, "Nest Hub Max") == (
            (0, True),
            (1, True),
            (2, True),
            (3, True),
        )

    def test_brick_rate_trajectory_rises_then_recovers(self, pinned_aggregate):
        aggregate = pinned_aggregate
        rates = [epoch.brick_rate for epoch in aggregate.epochs]
        assert rates == [0.0, 0.0, 0.5, 0.0]

    def test_recovery_is_counted(self, pinned_aggregate):
        aggregate = pinned_aggregate
        assert aggregate.brick_flips == 1        # Fire TV functional -> bricked
        assert aggregate.recovered_devices == 1  # ... and back
        assert aggregate.recovered_homes == 1
        assert aggregate.bricked_at_end_homes == 0

    def test_readiness_trajectory_tracks_firmware(self, pinned_aggregate):
        aggregate = pinned_aggregate
        assert [epoch.ready for epoch in aggregate.epochs] == [1, 1, 1, 2]

    def test_transition_timing(self, pinned_aggregate):
        aggregate = pinned_aggregate
        assert aggregate.transitioned_homes == 1
        assert aggregate.transition_epochs.median == pytest.approx(2.0, rel=0.02)


class TestEngineEndToEnd:
    @pytest.fixture(scope="class")
    def staged(self):
        return run_lifecycle_stream(3, seed=7, params=LifecycleParams(epochs=4, wave="flash-cut"))

    def test_all_cells_complete(self, staged):
        assert staged.completed == staged.total_runs == 12
        assert staged.failed == ()

    def test_brick_rate_jumps_at_the_cut(self, staged):
        by_epoch = {epoch.epoch: epoch for epoch in staged.epochs}
        assert by_epoch[0].bricked == by_epoch[1].bricked == 0
        assert by_epoch[2].bricked > 0
        assert by_epoch[2].config_mix == (("ipv6-only", 3),)

    def test_every_home_transitions_once(self, staged):
        assert staged.transitioned_homes == staged.homes == 3

    def test_render_smoke(self, staged):
        text = render_lifecycle(staged)
        assert "Lifecycle (flash-cut, 3 homes x 4 epochs)" in text
        assert "Address surface drift" in text
        assert "rotated-out addresses answering WAN probes: 0" in text

    def test_rotation_retires_addresses_over_time(self):
        params = LifecycleParams(epochs=3, wave="none", exposure=True)
        aggregate = run_lifecycle_stream(2, seed=11, params=params)
        assert aggregate.retired_responsive == 0
        # privacy-addressed devices rotate out at least somewhere in the fleet
        assert any(epoch.retired_addresses > 0 for epoch in aggregate.epochs)


class TestJobsInvariance:
    def test_report_byte_identical_serial_vs_parallel(self):
        params = LifecycleParams(epochs=3, wave="staged-v6only")
        a = run_lifecycle_stream(3, seed=5, params=params, shards=1)
        b = run_lifecycle_stream(3, seed=5, params=params, shards=4)
        assert a == b
        assert render_lifecycle(a) == render_lifecycle(b)


class TestFailureAccounting:
    def test_worker_failure_becomes_failed_tuple(self):
        bad = EpochSpec(
            home_id=0,
            epoch=0,
            sim_seed=1,
            config_name="dual-stack",
            device_names=("No Such Device",),
        )
        units = ((bad,),)
        aggregate = run_sharded(1, units.__getitem__, fold=LifecycleFold(wave_name="none"), worker=run_home_epoch)
        assert aggregate.completed == 0
        assert len(aggregate.failed) == 1
        home_id, label, error = aggregate.failed[0]
        assert (home_id, label) == (0, "epoch 0")
        assert "No Such Device" in error
        assert "FAILED home 0 [epoch 0]" in render_lifecycle(aggregate)
