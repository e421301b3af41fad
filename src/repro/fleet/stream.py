"""The fleet subsystem's streaming fold: sharded rollout aggregation.

:class:`FleetFold` aggregates the rollout one home at a time, so ``repro
fleet`` renders byte-identical reports at any ``--shards`` without ever
retaining a summary. Like the other population folds (exposure, faults,
lifecycle, adversary), it defines only ``count`` and ``finalize``; the
tally, its merge and the run-and-failure ledger come from
:class:`~repro.fleet.shard.Fold`.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.cache import CacheSettings
from repro.fleet.aggregate import (
    _CONFIG_ORDER,
    ConfigStats,
    FleetAggregate,
    QuantileSketch,
    share_distribution,
)
from repro.fleet.runner import simulate_home
from repro.fleet.scenario import RolloutScenario, generate_home
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, from_tally, run_sharded


def config_sort_key(name: str):
    """Table-2 config order first, then lexicographic for strangers."""
    return (_CONFIG_ORDER.index(name) if name in _CONFIG_ORDER else len(_CONFIG_ORDER), name)


@dataclass(frozen=True)
class FleetFold(Fold):
    """Fold one home's outcome into rollout statistics.

    The tally holds one counter row per config keyed by
    :class:`ConfigStats` field names and the v6-share sketch; ``finalize``
    produces the :class:`FleetAggregate` the fleet report renders.
    """

    def count(self, acc, completed):
        for result in completed:
            summary = result.summary
            row = acc.setdefault("configs", {}).setdefault(summary.config_name, Counter())
            row["homes"] += 1
            row["devices"] += summary.size
            row["bricked_devices"] += len(summary.bricked)
            row["homes_with_bricked"] += summary.has_bricked
            row["eui64_devices"] += len(summary.eui64_devices)
            row["homes_with_eui64"] += summary.has_eui64
            row["data_v6_devices"] += len(summary.data_v6_devices)
            if summary.v6_share is not None:
                acc["share"] = acc.get("share", QuantileSketch()).add(summary.v6_share)
        return acc

    def finalize(self, acc) -> FleetAggregate:
        configs = acc.get("configs", {})
        failed = self.failed(acc)
        return FleetAggregate(
            total_homes=acc["total_runs"],
            completed_homes=acc["total_runs"] - len(failed),
            failed_homes=failed,
            per_config=tuple(
                from_tally(ConfigStats, configs[name], config_name=name)
                for name in sorted(configs, key=config_sort_key)
            ),
            v6_share=share_distribution(acc.get("share", QuantileSketch())),
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
        checkpoint_every=checkpoint_every,
        cache=cache,
    )


__all__ = ["FleetFold", "config_sort_key", "run_fleet_stream"]
