"""Runner tests: serial/parallel equality, error isolation, determinism.

Hand-built small :class:`HomeSpec`\\ s keep each simulated home cheap; the
sharded engine does not care whether a spec came from ``generate_fleet``.
"""

import gc
import sys
import time

import pytest

from repro.cli import main
from repro.fleet import FleetFold, HomeSpec, HomeTimeout, run_sharded, simulate_home
from repro.fleet.runner import _execute_home
from repro.reports import render_fleet_summary

SMALL_HOMES = [
    HomeSpec(
        home_id=0,
        sim_seed=101,
        config_name="ipv6-only",
        device_names=("Samsung Fridge", "GE Microwave", "Behmor Brewer"),
    ),
    HomeSpec(
        home_id=1,
        sim_seed=202,
        config_name="dual-stack",
        device_names=("Samsung Fridge", "Miele Dishwasher"),
    ),
    HomeSpec(
        home_id=2,
        sim_seed=303,
        config_name="ipv4-only",
        device_names=("Smarter IKettle", "Xiaomi Ricecooker"),
    ),
]

BROKEN_HOME = HomeSpec(
    home_id=3,
    sim_seed=404,
    config_name="ipv6-only",
    device_names=("No Such Device",),
)


def run_homes(specs, **kwargs):
    """Fold hand-built homes, one unit each, through the sharded engine."""
    units = [(spec,) for spec in specs]
    return run_sharded(len(units), units.__getitem__, fold=FleetFold(), worker=simulate_home, **kwargs)


def test_simulate_home_is_deterministic():
    first = simulate_home(SMALL_HOMES[0])
    second = simulate_home(SMALL_HOMES[0])
    assert first == second
    assert first.config_name == "ipv6-only"
    assert first.size == 3


def test_serial_and_parallel_results_are_equal():
    serial = run_homes(SMALL_HOMES, shards=1)
    parallel = run_homes(SMALL_HOMES, shards=2)
    assert serial == parallel
    assert render_fleet_summary(serial) == render_fleet_summary(parallel)


def test_results_ordered_by_home_id():
    broken_too = HomeSpec(home_id=4, sim_seed=505, config_name="dual-stack", device_names=("Nope",))
    aggregate = run_homes([broken_too, BROKEN_HOME] + list(reversed(SMALL_HOMES)), shards=2)
    assert [home_id for home_id, _ in aggregate.failed_homes] == [3, 4]


@pytest.mark.parametrize("shards", [1, 2])
def test_one_failing_home_does_not_abort_the_fleet(shards):
    aggregate = run_homes(SMALL_HOMES + [BROKEN_HOME], shards=shards)
    assert aggregate.total_homes == 4
    assert aggregate.completed_homes == 3
    ((home_id, line),) = aggregate.failed_homes
    assert home_id == 3
    assert "No Such Device" in line
    assert "FAILED home 3" in render_fleet_summary(aggregate)


def test_timeout_reports_a_failed_home():
    aggregate = run_homes([SMALL_HOMES[0]], timeout=1e-4)
    ((_, line),) = aggregate.failed_homes
    assert "HomeTimeout" in line


def sleeps_in_a_gc_callback(spec):
    """Outlives a 1 ms budget inside a ``gc.callbacks`` hook, where CPython
    prints any raise as "Exception ignored" and carries on."""

    def hook(phase, info):
        if phase == "start":
            time.sleep(0.02)

    gc.callbacks.append(hook)
    try:
        gc.collect()
    finally:
        gc.callbacks.remove(hook)
    return "completed"


def catches_exceptions_around_a_sleep(spec):
    """Outlives a 1 ms budget inside ``except Exception``, like a cloud
    service's decode or a cache read."""
    try:
        time.sleep(0.02)
    except Exception:
        pass
    return "completed"


def test_alarm_dropped_by_a_gc_callback_still_fails_the_home(monkeypatch):
    dropped = []
    monkeypatch.setattr(sys, "unraisablehook", lambda unraisable: dropped.append(unraisable.exc_type))
    result = _execute_home(SMALL_HOMES[0], timeout=0.001, worker=sleeps_in_a_gc_callback)
    assert not result.ok
    assert "HomeTimeout" in result.error.splitlines()[-1]
    assert set(dropped) <= {HomeTimeout}


def test_alarm_inside_except_exception_still_fails_the_home():
    result = _execute_home(SMALL_HOMES[0], timeout=0.001, worker=catches_exceptions_around_a_sleep)
    assert not result.ok
    assert "HomeTimeout" in result.error.splitlines()[-1]


def test_dual_stack_home_reports_v6_share():
    summary = simulate_home(SMALL_HOMES[1])
    assert summary.v6_share is not None
    assert 0.0 <= summary.v6_share <= 1.0


def test_ipv4_only_home_has_no_share_and_no_bricks():
    summary = simulate_home(SMALL_HOMES[2])
    assert summary.v6_share is None
    assert summary.bricked == ()


def test_invalid_jobs_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fleet", "--homes", "1", "--jobs", "0"])
    assert excinfo.value.code == 2
    assert "must be >= 1, got 0" in capsys.readouterr().err
    with pytest.raises(ValueError):
        run_homes(SMALL_HOMES, shards=0)
