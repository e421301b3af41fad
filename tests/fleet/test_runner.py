"""Runner tests: serial/parallel equality, error isolation, determinism.

Hand-built small :class:`HomeSpec`\\ s keep each simulated home cheap; the
sharded engine does not care whether a spec came from ``generate_fleet``.
"""

import pytest

from repro.cli import main
from repro.fleet import FleetFold, HomeSpec, run_sharded, simulate_home
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


def test_progress_polling_does_not_perturb_the_simulation():
    """run_home_study's pending-poll timer must not change observable results."""
    from repro.fleet.summary import summarize_home
    from repro.testbed.study import run_home_study

    spec = SMALL_HOMES[0]
    plain = summarize_home(
        run_home_study(spec.sim_seed, spec.config_name, spec.device_names), spec
    )
    ticks = []
    polled = summarize_home(
        run_home_study(
            spec.sim_seed,
            spec.config_name,
            spec.device_names,
            progress=lambda now, pending: ticks.append((now, pending)),
        ),
        spec,
    )
    assert ticks and all(pending >= 0 for _, pending in ticks)
    assert polled == plain
