"""Population-scale fault analytics.

Crosses the fleet generator's synthetic homes with network configs and fault
presets and answers the subsystem's headline question: *which impairments
brick which homes, and how fast do the survivors recover?* Home generation
uses common random numbers (the portfolio stream never sees the config or
the fault), so every (config, fault) column describes the **same homes** —
paired counterfactuals, not resampling noise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cache import CacheSettings
from repro.faults.analysis import OUTCOMES, run_home_faults
from repro.faults.schedule import get_fault
from repro.fleet.aggregate import QuantileSketch
from repro.fleet.scenario import RolloutScenario, generate_home
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, run_sharded
from repro.fleet.store import spec_token
from repro.fleet.stream import failure_line
from repro.testbed.study import resolve_config

DEFAULT_FAULTS = ("dns-blackout", "uplink-flap")
DEFAULT_CONFIGS = ("dual-stack", "ipv6-only")


@dataclass(frozen=True)
class FaultSpec:
    """One (home, config) cell: a seeded, picklable simulator input.

    The worker runs the clean baseline once and then every fault in
    ``fault_names`` against the same seed, so grouping faults per spec keeps
    each baseline from being recomputed per fault.
    """

    home_id: int
    sim_seed: int
    config_name: str
    device_names: tuple[str, ...]
    fault_names: tuple[str, ...]
    checkins: int = 2
    fidelity: str = "packet"

    @property
    def size(self) -> int:
        return len(self.device_names)


# ------------------------------------------------------------- aggregation


@dataclass(frozen=True)
class TtrStats:
    """Time-to-recover distribution over one population cell (seconds).

    The median comes from the mergeable
    :class:`~repro.fleet.aggregate.QuantileSketch`, so reports stay
    byte-identical at any ``--shards`` (the sketch is within 1% relative
    error, clamped to the exact min/max).
    """

    count: int = 0
    minimum: float = 0.0
    median: float = 0.0
    maximum: float = 0.0

    @staticmethod
    def from_sketch(sketch: QuantileSketch) -> "TtrStats":
        if sketch.count == 0:
            return TtrStats()
        return TtrStats(
            count=sketch.count,
            minimum=sketch.stats.minimum,
            median=sketch.median,
            maximum=sketch.stats.maximum,
        )


@dataclass(frozen=True)
class CellStats:
    """Population outcome counts for one (config, fault) cell."""

    config_name: str
    fault: str
    homes: int
    devices: int
    unaffected: int
    recovered: int
    degraded: int
    bricked: int
    dns_retries: int
    dns_timeouts: int
    flow_failures: int
    fallbacks: int
    ttr: TtrStats

    @property
    def affected(self) -> int:
        return self.devices - self.unaffected

    @property
    def bricked_fraction(self) -> float:
        return self.bricked / self.devices if self.devices else 0.0


@dataclass(frozen=True)
class FaultAggregate:
    """The whole population, one block per (config, fault) cell."""

    total_runs: int
    failed: tuple[tuple[int, str, str], ...]   # (home_id, config, first error line)
    homes: int
    fault_names: tuple[str, ...]
    cells: tuple[CellStats, ...]

    @property
    def completed(self) -> int:
        return self.total_runs - len(self.failed)

    def cell(self, config_name: str, fault: str) -> CellStats:
        for stats in self.cells:
            if stats.config_name == config_name and stats.fault == fault:
                return stats
        raise KeyError((config_name, fault))


# --------------------------------------------------------- streaming fold

# Positional counter slots of a (config, fault) cell row; the trailing slot
# holds the TTR QuantileSketch.
_CELL_SLOTS = 9


@dataclass(frozen=True)
class FaultFold(Fold):
    """Fold one home's (home x config) outcome grid into cell statistics.

    The unit is the *whole home* (every config cell), so the distinct-home
    count is exact under sharding: a shard boundary can never split a
    home's cells across accumulators.
    """

    def empty(self):
        return {
            "total": 0,
            "failed": [],  # (home_id, config, first error line)
            "homes": 0,
            "fault_names": [],  # first-seen order
            "config_homes": {},  # config -> ok summaries
            "cells": {},  # (config, fault) -> counters + ttr sketch
        }

    def add(self, acc, outcomes):
        any_ok = False
        for result in outcomes:
            acc["total"] += 1
            spec = result.spec
            if not result.ok:
                acc["failed"].append((spec.home_id, spec.config_name, failure_line(result.error)))
                continue
            any_ok = True
            summary = result.summary
            config = summary.config_name
            acc["config_homes"][config] = acc["config_homes"].get(config, 0) + 1
            for fault_name, _count in summary.injected:
                if fault_name not in acc["fault_names"]:
                    acc["fault_names"].append(fault_name)
                row = acc["cells"].setdefault(
                    (config, fault_name), [0] * _CELL_SLOTS + [QuantileSketch()]
                )
                cells = summary.outcomes_for(fault_name)
                row[0] += len(cells)
                for cell in cells:
                    row[1 + OUTCOMES.index(cell.outcome)] += 1
                    row[5] += cell.dns_retries
                    row[6] += cell.dns_timeouts
                    row[7] += cell.flow_failures
                    row[8] += cell.fallbacks
                    if cell.time_to_recover is not None:
                        row[_CELL_SLOTS] = row[_CELL_SLOTS].add(cell.time_to_recover)
        if any_ok:
            acc["homes"] += 1
        return acc

    def merge(self, left, right):
        left["total"] += right["total"]
        left["failed"].extend(right["failed"])
        left["homes"] += right["homes"]
        for name in right["fault_names"]:
            if name not in left["fault_names"]:
                left["fault_names"].append(name)
        for config, count in right["config_homes"].items():
            left["config_homes"][config] = left["config_homes"].get(config, 0) + count
        for key, row in right["cells"].items():
            mine = left["cells"].setdefault(key, [0] * _CELL_SLOTS + [QuantileSketch()])
            for slot in range(_CELL_SLOTS):
                mine[slot] += row[slot]
            mine[_CELL_SLOTS] = mine[_CELL_SLOTS].merge(row[_CELL_SLOTS])
        return left

    def finalize(self, acc) -> FaultAggregate:
        empty_row = [0] * _CELL_SLOTS + [QuantileSketch()]
        cells = []
        for config in sorted(acc["config_homes"]):
            for fault in acc["fault_names"]:
                row = acc["cells"].get((config, fault), empty_row)
                cells.append(
                    CellStats(
                        config_name=config,
                        fault=fault,
                        homes=acc["config_homes"][config],
                        devices=row[0],
                        unaffected=row[1],
                        recovered=row[2],
                        degraded=row[3],
                        bricked=row[4],
                        dns_retries=row[5],
                        dns_timeouts=row[6],
                        flow_failures=row[7],
                        fallbacks=row[8],
                        ttr=TtrStats.from_sketch(row[_CELL_SLOTS]),
                    )
                )
        return FaultAggregate(
            total_runs=acc["total"],
            failed=tuple(sorted(acc["failed"])),
            homes=acc["homes"],
            fault_names=tuple(acc["fault_names"]),
            cells=tuple(cells),
        )


def _faults_unit(
    index: int,
    *,
    seed: int,
    config_names: tuple[str, ...],
    fault_names: tuple[str, ...],
    checkins: int,
    fidelity: str,
):
    scenario = RolloutScenario(name="faults", config_mix=((config_names[0], 1.0),))
    home = generate_home(index, seed, scenario)
    return tuple(
        FaultSpec(
            home_id=home.home_id,
            sim_seed=home.sim_seed,
            config_name=config_name,
            device_names=home.device_names,
            fault_names=fault_names,
            checkins=checkins,
            fidelity=fidelity,
        )
        for config_name in config_names
    )


def run_faults_stream(
    homes: int,
    *,
    seed: int,
    config_names: Sequence[str] = DEFAULT_CONFIGS,
    fault_names: Sequence[str] = DEFAULT_FAULTS,
    checkins: int = 2,
    fidelity: str = "packet",
    shards: int = 1,
    timeout: Optional[float] = None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: Optional[ShardProgressFn] = None,
    cache: Optional[CacheSettings] = None,
) -> FaultAggregate:
    """Run ``homes`` synthetic homes under every config x fault and fold the grid.

    The home population is drawn once per index (via the fleet generator's
    scenario-independent streams) and shared by every config column.
    Byte-identical at any shard count, in O(shards) memory; each shard
    generates its homes lazily from the seed.
    """
    if homes < 0:
        raise ValueError("homes must be >= 0")
    if not config_names:
        raise ValueError("need at least one network config")
    if not fault_names:
        raise ValueError("need at least one fault preset")
    resolved = tuple(resolve_config(name).name for name in config_names)
    for fault_name in fault_names:
        get_fault(fault_name)  # raises on unknown presets before any work
    return run_sharded(
        homes,
        functools.partial(
            _faults_unit,
            seed=seed,
            config_names=resolved,
            fault_names=tuple(fault_names),
            checkins=checkins,
            fidelity=fidelity,
        ),
        fold=FaultFold(),
        worker=run_home_faults,
        shards=shards,
        timeout=timeout,
        progress=progress,
        journal_dir=journal_dir,
        journal_token=spec_token(
            "faults", homes, seed, resolved, tuple(fault_names), checkins, fidelity, timeout
        ),
        checkpoint_every=checkpoint_every,
        cache=cache,
    )
