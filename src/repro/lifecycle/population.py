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
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.cache import CacheSettings
from repro.fleet.aggregate import QuantileSketch
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, from_tally, run_sharded
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


@dataclass(frozen=True)
class LifecycleFold(Fold):
    """Fold one home's full timeline into fleet trajectory statistics.

    The unit is the *whole home* (all its epochs in order), so every
    cross-epoch comparison — joins/leaves against the previous epoch,
    ever-bricked tracking, first-transition detection, end-state
    classification — happens inside one ``count`` call with the complete
    timeline in hand. The first epoch is its own predecessor, so all its
    movement counts are 0. Only counters keyed by :class:`EpochStats` and
    :class:`LifecycleAggregate` field names, and the transition sketch,
    cross shard boundaries, and those merge exactly.
    """

    wave_name: str = "?"
    cell = "epoch"

    def count(self, acc, completed):
        if not completed:
            return acc
        completed = sorted(completed, key=lambda result: result.spec.epoch)
        acc["homes"] += 1

        ever_bricked: set[str] = set()
        first_transition: Optional[int] = None
        previous = completed[0]
        for result in completed:
            spec, summary = result.spec, result.summary
            row = acc.setdefault("epochs", {}).setdefault(spec.epoch, Counter())
            row["joins"] += len(set(summary.devices) - set(previous.summary.devices))
            row["leaves"] += len(set(previous.summary.devices) - set(summary.devices))
            before = dict(previous.spec.firmware)
            row["firmware_updates"] += sum(1 for name, revisions in spec.firmware if revisions != before.get(name, ()))
            acc["recovered_devices"] += len(ever_bricked & set(summary.functional))
            acc["brick_flips"] += len(set(summary.bricked) & set(previous.summary.functional))
            if spec.transitioned and first_transition is None:
                first_transition = spec.epoch
            ever_bricked |= set(summary.bricked)
            ever_bricked -= set(summary.functional)
            if summary.exposure is not None:
                acc["retired_responsive"] += summary.exposure.retired_responsive

            row["homes"] += 1
            row["devices"] += summary.size
            row["functional"] += len(summary.functional)
            row["bricked"] += len(summary.bricked)
            row["ready"] += len(summary.ready)
            row["eui64"] += len(summary.eui64_devices)
            row["transitions"] += spec.transitioned
            row["gua_addresses"] += summary.gua_addresses
            row["retired_addresses"] += summary.retired_addresses
            if summary.exposure is not None:
                row["discoverable"] += summary.exposure.discoverable
                row["reachable"] += summary.exposure.reachable
                row["scanned_homes"] += 1
            row.setdefault("config_mix", Counter())[summary.config_name] += 1
            previous = result

        if first_transition is not None:
            acc["transitioned_homes"] += 1
            acc["transition_epochs"] = acc.get("transition_epochs", QuantileSketch()).add(float(first_transition))
        if not any(result.summary.bricked for result in completed):
            acc["never_bricked_homes"] += 1
        elif completed[-1].summary.bricked:
            acc["bricked_at_end_homes"] += 1
        else:
            acc["recovered_homes"] += 1
        return acc

    def finalize(self, acc) -> LifecycleAggregate:
        rows = acc.get("epochs", {})
        epochs = tuple(
            from_tally(EpochStats, row, epoch=epoch, config_mix=tuple(sorted(row["config_mix"].items())))
            for epoch, row in sorted(rows.items())
        )
        failed = tuple((home_id, f"epoch {epoch}", line) for home_id, epoch, line in self.failed(acc))
        return from_tally(
            LifecycleAggregate,
            acc,
            wave_name=self.wave_name,
            epoch_count=len(epochs),
            failed=failed,
            epochs=epochs,
            transition_epochs=acc.get("transition_epochs", QuantileSketch()),
        )


def _lifecycle_unit(index: int, *, seed: int, params: LifecycleParams):
    # build_timeline's inventory/upgrade-path lookups are process-cached, so
    # planning one home at a time costs nothing extra per home.
    return build_timeline(index, seed, params)


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
        checkpoint_every=checkpoint_every,
        cache=cache,
    )
