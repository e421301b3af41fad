"""Fleet-level time series: trajectories, not snapshots.

Folds each home's per-epoch results into per-epoch fleet statistics plus
cross-epoch movement (joins/leaves, firmware updates, brick/recover flips)
and time-to-transition distributions. Every accumulator is either a plain
counter or one of the mergeable streaming aggregates from
:mod:`repro.fleet.aggregate` (``QuantileSketch``), so the aggregate, and the
bytes the report renders from it, are identical at any ``--shards``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.cache import CacheSettings
from repro.fleet.aggregate import QuantileSketch
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, run_sharded
from repro.fleet.store import spec_token
from repro.fleet.stream import failure_line
from repro.lifecycle.analysis import run_home_epoch
from repro.lifecycle.timeline import LifecycleParams, build_timeline


@dataclass(frozen=True)
class EpochStats:
    """The whole fleet in one epoch."""

    epoch: int
    homes: int
    devices: int
    functional: int
    bricked: int
    ready: int
    eui64: int
    joins: int
    leaves: int
    firmware_updates: int
    transitions: int
    gua_addresses: int
    retired_addresses: int
    config_mix: tuple[tuple[str, int], ...]   # (config, homes), name-sorted
    discoverable: int = 0
    reachable: int = 0
    scanned_homes: int = 0

    @property
    def brick_rate(self) -> float:
        return self.bricked / self.devices if self.devices else 0.0

    @property
    def ready_rate(self) -> float:
        return self.ready / self.devices if self.devices else 0.0


@dataclass(frozen=True)
class LifecycleAggregate:
    """Everything the lifecycle report renders."""

    wave_name: str
    homes: int
    epoch_count: int
    total_runs: int
    failed: tuple[tuple[int, str, str], ...]   # (home_id, "epoch N", error)
    epochs: tuple[EpochStats, ...]
    transition_epochs: QuantileSketch          # first config change, per home
    transitioned_homes: int
    recovered_devices: int                     # bricked earlier, functional later
    brick_flips: int                           # functional earlier, bricked later
    never_bricked_homes: int
    bricked_at_end_homes: int
    recovered_homes: int                       # bricked mid-timeline, clean at end
    retired_responsive: int                    # rotated-out addrs that answered (0)

    @property
    def completed(self) -> int:
        return self.total_runs - len(self.failed)


# --------------------------------------------------------- streaming fold

# Positional counter slots of a per-epoch row (EpochStats order, movement
# and config mix tracked separately).
_EPOCH_SLOTS = 12


@dataclass(frozen=True)
class LifecycleFold(Fold):
    """Fold one home's full timeline into fleet trajectory statistics.

    The unit is the *whole home* (all its epochs in order), so every
    cross-epoch comparison — joins/leaves against the previous epoch,
    ever-bricked tracking, first-transition detection, end-state
    classification — happens inside one ``add`` call with the complete
    timeline in hand. Only per-epoch counters and the transition
    sketch cross shard boundaries, and those merge exactly.
    """

    wave_name: str = "?"

    def empty(self):
        return {
            "total": 0,
            "failed": [],  # (home_id, epoch, first error line); epoch numeric
            "homes": 0,
            "epochs": {},  # epoch -> counters
            "mix": {},  # epoch -> {config: homes}
            "movement": {},  # epoch -> [joins, leaves, updates]
            "transition_sketch": QuantileSketch(),
            "transitioned": 0,
            "recovered_devices": 0,
            "brick_flips": 0,
            "never_bricked": 0,
            "bricked_at_end": 0,
            "recovered_homes": 0,
            "retired_responsive": 0,
        }

    def add(self, acc, outcomes):
        summaries = []
        for result in outcomes:
            acc["total"] += 1
            spec = result.spec
            if not result.ok:
                acc["failed"].append((spec.home_id, spec.epoch, failure_line(result.error)))
                continue
            summaries.append(result.summary)
        if not summaries:
            return acc
        summaries.sort(key=lambda s: s.epoch)
        acc["homes"] += 1

        ever_bricked: set[str] = set()
        first_transition: Optional[int] = None
        for i, summary in enumerate(summaries):
            movement = acc["movement"].setdefault(summary.epoch, [0, 0, 0])
            if i > 0:
                previous = summaries[i - 1]
                movement[0] += len(set(summary.devices) - set(previous.devices))
                movement[1] += len(set(previous.devices) - set(summary.devices))
                before = dict(previous.firmware)
                movement[2] += sum(
                    1 for name, revisions in summary.firmware if revisions != before.get(name, ())
                )
                acc["recovered_devices"] += len(ever_bricked & set(summary.functional))
                acc["brick_flips"] += len(set(summary.bricked) & set(previous.functional))
            if summary.transitioned and first_transition is None:
                first_transition = summary.epoch
            ever_bricked |= set(summary.bricked)
            ever_bricked -= set(summary.functional)
            if summary.exposure is not None:
                acc["retired_responsive"] += summary.exposure.retired_responsive

            row = acc["epochs"].setdefault(summary.epoch, [0] * _EPOCH_SLOTS)
            row[0] += 1
            row[1] += summary.size
            row[2] += len(summary.functional)
            row[3] += len(summary.bricked)
            row[4] += len(summary.ready)
            row[5] += len(summary.eui64_devices)
            row[6] += 1 if summary.transitioned else 0
            row[7] += summary.gua_addresses
            row[8] += summary.retired_addresses
            if summary.exposure is not None:
                row[9] += summary.exposure.discoverable
                row[10] += summary.exposure.reachable
                row[11] += 1
            mix = acc["mix"].setdefault(summary.epoch, {})
            mix[summary.config_name] = mix.get(summary.config_name, 0) + 1

        if first_transition is not None:
            acc["transitioned"] += 1
            acc["transition_sketch"] = acc["transition_sketch"].add(float(first_transition))
        if not any(summary.bricked for summary in summaries):
            acc["never_bricked"] += 1
        elif summaries[-1].bricked:
            acc["bricked_at_end"] += 1
        else:
            acc["recovered_homes"] += 1
        return acc

    def merge(self, left, right):
        left["total"] += right["total"]
        left["failed"].extend(right["failed"])
        for key in (
            "homes",
            "transitioned",
            "recovered_devices",
            "brick_flips",
            "never_bricked",
            "bricked_at_end",
            "recovered_homes",
            "retired_responsive",
        ):
            left[key] += right[key]
        left["transition_sketch"] = left["transition_sketch"].merge(right["transition_sketch"])
        for epoch, row in right["epochs"].items():
            mine = left["epochs"].setdefault(epoch, [0] * _EPOCH_SLOTS)
            for slot in range(_EPOCH_SLOTS):
                mine[slot] += row[slot]
        for epoch, configs in right["mix"].items():
            mine = left["mix"].setdefault(epoch, {})
            for config, count in configs.items():
                mine[config] = mine.get(config, 0) + count
        for epoch, movement in right["movement"].items():
            mine = left["movement"].setdefault(epoch, [0, 0, 0])
            for slot, value in enumerate(movement):
                mine[slot] += value
        return left

    def finalize(self, acc) -> LifecycleAggregate:
        epochs = []
        for epoch in sorted(acc["epochs"]):
            row = acc["epochs"][epoch]
            movement = acc["movement"].get(epoch, [0, 0, 0])
            epochs.append(
                EpochStats(
                    epoch=epoch,
                    homes=row[0],
                    devices=row[1],
                    functional=row[2],
                    bricked=row[3],
                    ready=row[4],
                    eui64=row[5],
                    joins=movement[0],
                    leaves=movement[1],
                    firmware_updates=movement[2],
                    transitions=row[6],
                    gua_addresses=row[7],
                    retired_addresses=row[8],
                    config_mix=tuple(sorted(acc["mix"][epoch].items())),
                    discoverable=row[9],
                    reachable=row[10],
                    scanned_homes=row[11],
                )
            )
        failed = tuple(
            (home_id, f"epoch {epoch}", line) for home_id, epoch, line in sorted(acc["failed"])
        )
        return LifecycleAggregate(
            wave_name=self.wave_name,
            homes=acc["homes"],
            epoch_count=len(epochs),
            total_runs=acc["total"],
            failed=failed,
            epochs=tuple(epochs),
            transition_epochs=acc["transition_sketch"],
            transitioned_homes=acc["transitioned"],
            recovered_devices=acc["recovered_devices"],
            brick_flips=acc["brick_flips"],
            never_bricked_homes=acc["never_bricked"],
            bricked_at_end_homes=acc["bricked_at_end"],
            recovered_homes=acc["recovered_homes"],
            retired_responsive=acc["retired_responsive"],
        )


def _lifecycle_unit(index: int, *, seed: int, params: LifecycleParams):
    # build_timeline's inventory/upgrade-path lookups are process-cached, so
    # planning one home at a time costs nothing extra per home.
    return build_timeline(index, seed, params).epochs


def run_lifecycle_stream(
    homes: int,
    *,
    seed: int,
    params: LifecycleParams,
    shards: int = 1,
    timeout: Optional[float] = None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: Optional[ShardProgressFn] = None,
    cache: Optional[CacheSettings] = None,
) -> LifecycleAggregate:
    """Advance ``homes`` timelines through every epoch and fold the trajectories.

    Byte-identical at any shard count, in O(shards) memory; each shard plans
    its timelines lazily from the seed (a prefix-stable function of it).
    """
    if homes < 0:
        raise ValueError("homes must be >= 0")
    return run_sharded(
        homes,
        functools.partial(_lifecycle_unit, seed=seed, params=params),
        fold=LifecycleFold(wave_name=params.wave),
        worker=run_home_epoch,
        shards=shards,
        timeout=timeout,
        progress=progress,
        journal_dir=journal_dir,
        journal_token=spec_token("lifecycle", homes, seed, params, timeout),
        checkpoint_every=checkpoint_every,
        cache=cache,
    )
