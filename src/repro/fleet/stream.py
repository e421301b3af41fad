"""The fleet subsystem's streaming fold: sharded rollout aggregation.

:class:`FleetFold` aggregates the rollout one home at a time, so ``repro
fleet`` renders byte-identical reports at any ``--shards`` without ever
retaining a summary. The other population layers (exposure, faults,
lifecycle, adversary) define their own folds; this module is the template
they follow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.cache import CacheSettings
from repro.fleet.aggregate import (
    _CONFIG_ORDER,
    ConfigStats,
    FleetAggregate,
    QuantileSketch,
    StreamStats,
    share_distribution,
)
from repro.fleet.runner import HomeResult, simulate_home
from repro.fleet.scenario import RolloutScenario, generate_home
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, run_sharded
from repro.fleet.store import spec_token


def failure_line(error: Optional[str]) -> str:
    """The last line of a worker traceback — what the reports print."""
    return (error or "unknown error").strip().splitlines()[-1]


def config_sort_key(name: str):
    """Table-2 config order first, then lexicographic for strangers."""
    return (_CONFIG_ORDER.index(name) if name in _CONFIG_ORDER else len(_CONFIG_ORDER), name)


@dataclass(frozen=True)
class FleetFold(Fold):
    """Fold one home's outcome into rollout statistics.

    The accumulator is a plain dict of counters, a per-config counter table,
    and the two share accumulators; every entry merges exactly
    associatively, and ``finalize`` produces the :class:`FleetAggregate`
    the fleet report renders.
    """

    def empty(self):
        return {
            "total": 0,
            "completed": 0,
            "failed": [],  # (home_id, first error line)
            "configs": {},  # name -> 7 ConfigStats counters, positional
            "share_stats": StreamStats(),
            "share_sketch": QuantileSketch(),
        }

    def add(self, acc, outcomes: tuple[HomeResult, ...]):
        for result in outcomes:
            acc["total"] += 1
            if not result.ok:
                acc["failed"].append((result.spec.home_id, failure_line(result.error)))
                continue
            summary = result.summary
            acc["completed"] += 1
            row = acc["configs"].setdefault(summary.config_name, [0] * 7)
            row[0] += 1
            row[1] += summary.size
            row[2] += len(summary.bricked)
            row[3] += 1 if summary.has_bricked else 0
            row[4] += len(summary.eui64_devices)
            row[5] += 1 if summary.has_eui64 else 0
            row[6] += len(summary.data_v6_devices)
            if summary.v6_share is not None:
                acc["share_stats"] = acc["share_stats"].add(summary.v6_share)
                acc["share_sketch"] = acc["share_sketch"].add(summary.v6_share)
        return acc

    def merge(self, left, right):
        left["total"] += right["total"]
        left["completed"] += right["completed"]
        left["failed"].extend(right["failed"])
        for name, row in right["configs"].items():
            mine = left["configs"].setdefault(name, [0] * 7)
            for slot, value in enumerate(row):
                mine[slot] += value
        left["share_stats"] = left["share_stats"].merge(right["share_stats"])
        left["share_sketch"] = left["share_sketch"].merge(right["share_sketch"])
        return left

    def finalize(self, acc) -> FleetAggregate:
        per_config = tuple(
            ConfigStats(name, *acc["configs"][name])
            for name in sorted(acc["configs"], key=config_sort_key)
        )
        return FleetAggregate(
            total_homes=acc["total"],
            completed_homes=acc["completed"],
            failed_homes=tuple(sorted(acc["failed"])),
            per_config=per_config,
            v6_share=share_distribution(acc["share_stats"], acc["share_sketch"]),
        )


def _fleet_unit(index: int, *, seed: int, scenario: RolloutScenario, fidelity: str):
    return (generate_home(index, seed, scenario, fidelity=fidelity),)


def run_fleet_stream(
    homes: int,
    *,
    seed: int,
    scenario: RolloutScenario,
    fidelity: str = "packet",
    shards: int = 1,
    timeout: Optional[float] = None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: Optional[ShardProgressFn] = None,
    cache: Optional[CacheSettings] = None,
) -> FleetAggregate:
    """Simulate ``homes`` across ``shards`` and stream-fold the aggregate.

    Home ``i`` is ``generate_fleet(...)[i]``; the result is byte-identical at
    any shard count, in O(shards) memory.
    """
    if homes < 0:
        raise ValueError("homes must be >= 0")
    return run_sharded(
        homes,
        functools.partial(_fleet_unit, seed=seed, scenario=scenario, fidelity=fidelity),
        fold=FleetFold(),
        worker=simulate_home,
        shards=shards,
        timeout=timeout,
        progress=progress,
        journal_dir=journal_dir,
        journal_token=spec_token("fleet", homes, seed, scenario, fidelity, timeout),
        checkpoint_every=checkpoint_every,
        cache=cache,
    )


__all__ = ["FleetFold", "config_sort_key", "failure_line", "run_fleet_stream"]
