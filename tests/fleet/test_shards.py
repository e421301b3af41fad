"""Sharded streaming execution tests.

A cheap module-level toy worker (no simulation) drives the real
:class:`~repro.fleet.stream.FleetFold` through :func:`run_sharded`, so these
tests exercise the sharding machinery — range math, fold/merge, journaled
resume, dead workers — at interactive speed. Byte-identity with real
workers is covered per-subsystem in the population tests and in the CI
determinism matrix.
"""

import functools
import importlib
import os
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import HomeSpec, HomeSummary
from repro.fleet.shard import DEAD_WORKER_ERROR, run_sharded, run_unit, shard_ranges
from repro.fleet.stream import FleetFold
from repro.reports import render_fleet_summary

CONFIGS = ("ipv4-only", "dual-stack", "ipv6-only")
BROKEN_INDEX = 3
DEAD_INDEX = 7


def toy_unit(index, *, marker=None):
    """One home's specs, generated from its index alone (no seed needed)."""
    if marker is not None:
        with open(marker, "a") as fh:
            fh.write(f"{index}\n")
    devices = ("Device A", "Device B", "Device C")[: 2 + index % 2]
    return (
        HomeSpec(
            home_id=index,
            sim_seed=1000 + index,
            config_name=CONFIGS[index % len(CONFIGS)],
            device_names=devices,
        ),
    )


def toy_worker(spec):
    """A deterministic stand-in for simulate_home; raises on the broken home."""
    if spec.home_id == BROKEN_INDEX:
        raise RuntimeError(f"boom in home {spec.home_id}")
    return toy_summary(spec)


def dying_worker(spec):
    """toy_summary, except the dead home kills its process (an OOM-kill stand-in)."""
    if spec.home_id == DEAD_INDEX:
        os._exit(17)
    return toy_summary(spec)


def toy_summary(spec):
    """The toy summary of any home (never raises)."""
    dual = spec.config_name == "dual-stack"
    return HomeSummary(
        home_id=spec.home_id,
        config_name=spec.config_name,
        sim_seed=spec.sim_seed,
        devices=spec.device_names,
        functional=spec.device_names[1:],
        bricked=spec.device_names[:1] if spec.config_name == "ipv6-only" else (),
        eui64_devices=spec.device_names[:1],
        data_v6_devices=spec.device_names if dual else (),
        v6_share=(spec.home_id % 7) / 10.0 if dual else None,
        frames=10 * spec.home_id,
    )


def run_toy(units, **kwargs):
    source = functools.partial(toy_unit, marker=kwargs.pop("marker", None))
    return run_sharded(units, source, fold=FleetFold(), worker=toy_worker, **kwargs)


@pytest.mark.parametrize("units", [0, 1, 2, 7, 20])
@pytest.mark.parametrize("shards", [1, 2, 3, 5])
def test_shard_ranges_are_contiguous_and_balanced(units, shards):
    ranges = shard_ranges(units, shards)
    assert len(ranges) == shards
    assert ranges[0][0] == 0 and ranges[-1][1] == units
    for (_, prev_hi), (lo, _) in zip(ranges, ranges[1:]):
        assert lo == prev_hi
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1


def test_shard_ranges_rejects_zero_shards():
    with pytest.raises(ValueError):
        shard_ranges(5, 0)


@pytest.mark.parametrize("shards", [2, 3, 10])
def test_sharded_output_matches_single_shard(shards):
    single = run_toy(12, shards=1)
    sharded = run_toy(12, shards=shards)
    assert sharded == single
    assert render_fleet_summary(sharded) == render_fleet_summary(single)


def test_more_shards_than_units_is_fine():
    assert run_toy(2, shards=16) == run_toy(2, shards=1)


def test_zero_units_finalizes_the_empty_fold():
    aggregate = run_toy(0, shards=4)
    assert aggregate.total_homes == 0
    assert aggregate.v6_share is None


def test_failing_home_surfaces_without_aborting_the_shard():
    aggregate = run_toy(6, shards=2)
    assert aggregate.total_homes == 6
    assert aggregate.completed_homes == 5
    ((home_id, line),) = aggregate.failed_homes
    assert home_id == BROKEN_INDEX
    assert line == f"RuntimeError: boom in home {BROKEN_INDEX}"


def test_invalid_arguments_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_toy(4, shards=0)
    with pytest.raises(ValueError):
        run_toy(4, shards=2, checkpoint_every=0)


def test_progress_reports_every_shard():
    calls = []
    run_toy(9, shards=3, progress=lambda *args: calls.append(args))
    assert len(calls) == 3
    assert sorted(shard for _, _, shard, _ in calls) == [0, 1, 2]
    assert sorted(done for done, _, _, _ in calls) == [1, 2, 3]
    assert all(total == 3 for _, total, _, _ in calls)
    assert sum(units for _, _, _, units in calls) == 9


def test_journaled_run_resumes_after_a_mid_range_kill(tmp_path):
    """Kill a shard mid-range, resume, get byte-identical output back.

    The kill is simulated by rewinding one shard's journal to its first
    checkpoint (exactly what a SIGKILL between checkpoints leaves behind);
    marker files prove the resumed run re-executes only the units past that
    shard's watermark and skips everything else.
    """
    journal = tmp_path / "journal"
    units, shards, every = 8, 2, 2

    first_markers = tmp_path / "first.markers"
    baseline = run_toy(
        units,
        shards=shards,
        journal_dir=str(journal),
        checkpoint_every=every,
        marker=str(first_markers),
    )
    executed = sorted(int(line) for line in first_markers.read_text().split())
    assert executed == list(range(units))

    # Rewind shard 1 (units 4..7) to its first checkpoint: units 4..5 done.
    import pickle

    shard_file = journal / "shard-0001.journal"
    with open(shard_file, "rb") as fh:
        first_record = pickle.load(fh)
    assert first_record[0] == every
    with open(shard_file, "wb") as fh:
        pickle.dump(first_record, fh, protocol=pickle.HIGHEST_PROTOCOL)

    resume_markers = tmp_path / "resume.markers"
    resumed = run_toy(
        units,
        shards=shards,
        journal_dir=str(journal),
        checkpoint_every=every,
        marker=str(resume_markers),
    )
    assert resumed == baseline
    assert render_fleet_summary(resumed) == render_fleet_summary(baseline)
    re_executed = sorted(int(line) for line in resume_markers.read_text().split())
    assert re_executed == [6, 7]  # only the rewound shard's tail reruns


def test_completed_journal_short_circuits_entirely(tmp_path):
    journal = tmp_path / "journal"
    baseline = run_toy(6, shards=2, journal_dir=str(journal), checkpoint_every=1)
    markers = tmp_path / "again.markers"
    again = run_toy(6, shards=2, journal_dir=str(journal), checkpoint_every=1, marker=str(markers))
    assert again == baseline
    assert not markers.exists()  # nothing was re-executed at all


@pytest.mark.parametrize("journaled", [False, True], ids=["no-journal", "journal"])
@pytest.mark.parametrize("shards", [2, 4])
def test_dead_worker_surfaces_as_failed_rows_and_a_relaunch_retries_them(shards, journaled, tmp_path):
    """A home that kills its shard process must neither hang nor kill the parent.

    The pool breaks every in-flight shard at once, so each broken shard
    keeps its last journal checkpoint (or nothing) and reports every home
    past it as a DEAD_WORKER_ERROR row. Those rows are never journaled: a
    relaunch with a healthy worker resumes there and renders the clean bytes.
    """
    units = 12
    run = functools.partial(
        run_sharded,
        units,
        toy_unit,
        fold=FleetFold(),
        shards=shards,
        journal_dir=str(tmp_path / "journal") if journaled else None,
        checkpoint_every=1,
    )
    dead = run(worker=dying_worker)
    failed = dict(dead.failed_homes)
    assert failed[DEAD_INDEX] == DEAD_WORKER_ERROR
    assert set(failed.values()) == {DEAD_WORKER_ERROR}
    assert dead.total_homes == units
    assert dead.completed_homes + len(failed) == units

    clean = run_sharded(units, toy_unit, fold=FleetFold(), worker=toy_summary, shards=shards)
    assert DEAD_INDEX not in dict(clean.failed_homes)
    relaunched = run(worker=toy_summary)
    assert render_fleet_summary(relaunched) == render_fleet_summary(clean)


@pytest.mark.parametrize(
    "entry",
    [
        "repro.fleet.stream:run_fleet_stream",
        "repro.exposure.population:run_exposure_stream",
        "repro.faults.population:run_faults_stream",
        "repro.lifecycle.population:run_lifecycle_stream",
        "repro.adversary.population:run_adversary_stream",
    ],
)
def test_stream_entry_points_resolve_their_type_hints(entry):
    """Every annotation names something importable (a missing import is a NameError)."""
    module, name = entry.split(":")
    hints = typing.get_type_hints(getattr(importlib.import_module(module), name))
    assert "cache" in hints and "progress" in hints


def test_journal_from_a_different_run_is_refused(tmp_path):
    journal = tmp_path / "journal"
    run_toy(4, shards=2, journal_dir=str(journal), journal_token="run-a")
    with pytest.raises(ValueError, match="different run"):
        run_toy(4, shards=2, journal_dir=str(journal), journal_token="run-b")


@given(st.permutations(range(10)), st.data())
@settings(max_examples=40, deadline=None)
def test_fold_merge_is_order_invariant(order, data):
    """Any grouping + ordering of per-home folds renders the same bytes.

    This is the invariant journaled resume leans on: a resumed run merges
    restored accumulators with freshly folded ones in whatever grouping the
    checkpoint boundaries produced, and must still equal the uninterrupted
    serial fold.
    """
    fold = FleetFold()

    serial = fold.empty()
    for index in range(10):
        serial = fold.add(serial, run_unit(toy_unit, index, toy_worker, None))
    reference = fold.finalize(serial)

    # Partition the permuted indices into contiguous chunks, fold each chunk
    # independently, then merge the chunk accumulators left to right.
    cuts = sorted(data.draw(st.sets(st.integers(1, 9), max_size=4)))
    chunks, start = [], 0
    for cut in cuts + [10]:
        chunks.append(order[start:cut])
        start = cut
    merged = fold.empty()
    for chunk in chunks:
        acc = fold.empty()
        for index in chunk:
            acc = fold.add(acc, run_unit(toy_unit, index, toy_worker, None))
        merged = fold.merge(merged, acc)
    assert fold.finalize(merged) == reference
    assert render_fleet_summary(fold.finalize(merged)) == render_fleet_summary(reference)
