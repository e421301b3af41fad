"""Integration: cached populations return the same results, faster.

The cache's correctness contract is byte-identity — a cached run's
aggregate (and the report rendered from it) must equal the uncached run's
exactly, at any ``--shards``, warm or cold. These tests exercise the faults
population (the subsystem with the richest sharing structure: a clean
baseline arm common to every schedule) end to end through both the sharded
stream and the CLI, and the case label-free artifacts serve: two homes with
one closure share one artifact and still count as two homes.
"""

import dataclasses

import pytest

from repro.cache import (
    CacheSettings,
    process_counters,
    read_disk_stats,
    reset_process_caches,
)
from repro.adversary import AdversaryFold, WormParams
from repro.exposure import ExposureSpec, run_home_exposure
from repro.faults.population import FaultFold, _faults_unit, run_faults_stream, run_home_faults
from repro.fleet import FleetFold, simulate_home
from repro.fleet.scenario import generate_home, get_scenario
from repro.fleet.shard import run_sharded
from repro.reports import render_faults

FLEET_KW = dict(config_names=("ipv6-only",), fault_names=("dns-blackout", "ra-blackout"), fidelity="flow")


def run(cache=None) -> str:
    """One home x both arms, rendered."""
    return render_faults(run_faults_stream(1, seed=11, cache=cache, **FLEET_KW))


@pytest.fixture(autouse=True)
def fresh_process_caches():
    reset_process_caches()
    yield
    reset_process_caches()


@pytest.fixture(scope="module")
def uncached_report():
    return run()


def test_cached_run_matches_uncached_byte_for_byte(tmp_path, uncached_report):
    cache = CacheSettings(directory=str(tmp_path / "store"))
    assert run(cache) == uncached_report
    assert process_counters()["study_cache_misses"] == 3  # baseline + 2 arms


def test_warm_rerun_is_all_disk_hits(tmp_path, uncached_report):
    cache = CacheSettings(directory=str(tmp_path / "store"))
    run(cache)

    reset_process_caches()  # a new run: memory gone, disk remains
    assert run(cache) == uncached_report
    snapshot = process_counters()
    assert snapshot["study_cache_misses"] == 0
    assert snapshot["study_cache_disk_hits"] == 3
    assert read_disk_stats(cache.directory)["miss"] == 3  # only the cold run


def test_arm_per_spec_sweep_shares_one_baseline():
    # Split the two-fault spec into one spec per schedule: without the cache
    # each spec re-simulates the clean baseline; with it the second spec's
    # baseline is a memory hit — and the outcome grid is unchanged.
    (combined,) = _faults_unit(0, seed=11, **FLEET_KW)
    split = (tuple(dataclasses.replace(combined, fault_names=(name,)) for name in combined.fault_names),)

    def sweep(cache=None) -> str:
        return render_faults(
            run_sharded(1, split.__getitem__, fold=FaultFold(), worker=run_home_faults, cache=cache)
        )

    plain = sweep()
    reset_process_caches()
    assert sweep(CacheSettings()) == plain
    snapshot = process_counters()
    assert snapshot["studies_deduped"] == 1   # the shared baseline
    assert snapshot["study_cache_misses"] == 3


def twins(spec, home_ids=(3, 7)):
    """One unit per home id, each holding ``spec`` relabeled: one closure, two homes."""
    return tuple((dataclasses.replace(spec, home_id=home_id),) for home_id in home_ids)


def assert_one_shared_artifact():
    snapshot = process_counters()
    assert (snapshot["study_cache_misses"], snapshot["studies_deduped"]) == (1, 1)


def test_fleet_homes_sharing_a_closure_share_an_artifact_and_count_twice():
    units = twins(generate_home(0, 11, get_scenario("baseline"), fidelity="flow"))
    aggregate = run_sharded(2, units.__getitem__, fold=FleetFold(), worker=simulate_home, cache=CacheSettings())
    assert_one_shared_artifact()
    assert aggregate.total_homes == aggregate.completed_homes == 2
    (row,) = aggregate.per_config
    assert row.homes == 2


def test_adversary_homes_sharing_a_closure_are_two_epidemic_members():
    spec = ExposureSpec(
        0, 7, "dual-stack", "open", ("Google TV", "Samsung TV", "Nest Camera"), leak=True, fidelity="flow"
    )
    # A rate no exploitable home survives for one tick.
    fold = AdversaryFold(params=WormParams(scan_rate=1e9, dt=30.0, horizon=60.0), seed=1)
    units = twins(spec)
    aggregate = run_sharded(2, units.__getitem__, fold=fold, worker=run_home_exposure, cache=CacheSettings())
    assert_one_shared_artifact()
    timeline = aggregate.outcome_for("open").timeline
    assert (timeline.population, timeline.initial_susceptible) == (2, 2)
    assert sorted(event.home_id for event in timeline.events) == [3, 7]


def test_memory_only_cache_needs_no_directory(uncached_report):
    assert run(CacheSettings()) == uncached_report


def test_cli_cache_flag_end_to_end(tmp_path, capsys):
    from repro.cli import main

    argv = [
        "faults", "--homes", "1", "--seed", "11", "--configs", "ipv6-only",
        "--faults", "dns-blackout", "--fidelity", "flow",
        "--cache", str(tmp_path / "clistore"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "miss(es)" in cold.err

    reset_process_caches()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out  # byte-identical stdout
    assert "0 miss(es)" in warm.err
    assert "2 hit(s) (2 from disk)" in warm.err
