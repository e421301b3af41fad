"""Population-scale exposure analytics.

Crosses the fleet generator's synthetic homes with router firewall modes and
answers the subsystem's headline question: *what fraction of homes has at
least one internet-reachable device?* Because home generation uses common
random numbers (the portfolio stream never sees the firewall mode), every
firewall mode scans the **same homes** — the per-mode columns are paired
counterfactuals, not resampling noise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cache import CacheSettings
from repro.exposure.analysis import run_home_exposure
from repro.fleet.scenario import RolloutScenario, generate_home
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, run_sharded
from repro.fleet.store import spec_token
from repro.fleet.stream import failure_line
from repro.stack.firewall import FIREWALL_MODES
from repro.testbed.study import resolve_config

DEFAULT_SETTLE = 150.0  # sim-seconds of autoconfiguration before the scan


@dataclass(frozen=True)
class ExposureSpec:
    """One (home, firewall mode) cell: a seeded, picklable simulator input."""

    home_id: int
    sim_seed: int
    config_name: str
    firewall: str
    device_names: tuple[str, ...]
    settle: float = DEFAULT_SETTLE
    fidelity: str = "packet"

    @property
    def size(self) -> int:
        return len(self.device_names)


# ------------------------------------------------------------- aggregation


@dataclass(frozen=True)
class AddrKindStats:
    """Discovery/reachability by headline address kind, one firewall mode."""

    kind: str
    devices: int
    discoverable: int
    reachable: int


@dataclass(frozen=True)
class FirewallStats:
    """Population exposure under one firewall mode."""

    firewall: str
    homes: int
    devices: int
    discoverable_devices: int
    responsive_devices: int
    reachable_devices: int
    open_tcp_ports: int                 # (device, port) pairs WAN-open
    open_udp_ports: int
    homes_with_discoverable: int
    homes_with_reachable: int
    wan_dropped: int
    by_addr_kind: tuple[AddrKindStats, ...]

    @property
    def fraction_homes_reachable(self) -> float:
        return self.homes_with_reachable / self.homes if self.homes else 0.0

    @property
    def fraction_homes_discoverable(self) -> float:
        return self.homes_with_discoverable / self.homes if self.homes else 0.0


@dataclass(frozen=True)
class ExposureAggregate:
    """The whole population, one block per firewall mode."""

    config_name: str
    total_runs: int
    failed: tuple[tuple[int, str, str], ...]   # (home_id, firewall, first error line)
    per_firewall: tuple[FirewallStats, ...]

    @property
    def completed(self) -> int:
        return self.total_runs - len(self.failed)

    def stats_for(self, firewall: str) -> FirewallStats:
        for stats in self.per_firewall:
            if stats.firewall == firewall:
                return stats
        raise KeyError(firewall)


def _firewall_order(firewall: str) -> tuple:
    try:
        return (FIREWALL_MODES.index(firewall), firewall)
    except ValueError:
        return (len(FIREWALL_MODES), firewall)


# --------------------------------------------------------- streaming fold

# Positional counter slots of a per-firewall row (FirewallStats order);
# the trailing dict maps addr kind -> [devices, discoverable, reachable].
_FW_SLOTS = 10


@dataclass(frozen=True)
class ExposureFold(Fold):
    """Fold one home's (home x firewall) scan grid into per-mode counters.

    Exposure statistics are pure counters, so every slot merges by
    addition.
    """

    def empty(self):
        return {
            "total": 0,
            "failed": [],  # (home_id, firewall, first error line)
            "config": None,
            "fw": {},  # firewall -> counters + addr-kind table
        }

    def add(self, acc, outcomes):
        for result in outcomes:
            acc["total"] += 1
            spec = result.spec
            if not result.ok:
                acc["failed"].append((spec.home_id, spec.firewall, failure_line(result.error)))
                continue
            summary = result.summary
            acc["config"] = summary.config_name
            row = acc["fw"].setdefault(spec.firewall, [0] * _FW_SLOTS + [{}])
            row[0] += 1
            row[1] += len(summary.devices)
            row[2] += sum(1 for d in summary.devices if d.discoverable)
            row[3] += sum(1 for d in summary.devices if d.responsive)
            row[4] += sum(1 for d in summary.devices if d.reachable)
            row[5] += sum(len(d.open_tcp) for d in summary.devices)
            row[6] += sum(len(d.open_udp) for d in summary.devices)
            row[7] += 1 if summary.discoverable_devices else 0
            row[8] += 1 if summary.any_reachable else 0
            row[9] += summary.wan_dropped
            kinds = row[_FW_SLOTS]
            for device in summary.devices:
                kind = kinds.setdefault(device.addr_kind, [0, 0, 0])
                kind[0] += 1
                kind[1] += 1 if device.discoverable else 0
                kind[2] += 1 if device.reachable else 0
        return acc

    def merge(self, left, right):
        left["total"] += right["total"]
        left["failed"].extend(right["failed"])
        if right["config"] is not None:
            left["config"] = right["config"]
        for firewall, row in right["fw"].items():
            mine = left["fw"].setdefault(firewall, [0] * _FW_SLOTS + [{}])
            for slot in range(_FW_SLOTS):
                mine[slot] += row[slot]
            for kind, counts in row[_FW_SLOTS].items():
                mine_kind = mine[_FW_SLOTS].setdefault(kind, [0, 0, 0])
                for slot, value in enumerate(counts):
                    mine_kind[slot] += value
        return left

    def finalize(self, acc) -> ExposureAggregate:
        per_firewall = []
        for firewall in sorted(acc["fw"], key=_firewall_order):
            row = acc["fw"][firewall]
            by_kind = tuple(
                AddrKindStats(kind=kind, devices=counts[0], discoverable=counts[1], reachable=counts[2])
                for kind, counts in sorted(row[_FW_SLOTS].items())
            )
            per_firewall.append(
                FirewallStats(
                    firewall=firewall,
                    homes=row[0],
                    devices=row[1],
                    discoverable_devices=row[2],
                    responsive_devices=row[3],
                    reachable_devices=row[4],
                    open_tcp_ports=row[5],
                    open_udp_ports=row[6],
                    homes_with_discoverable=row[7],
                    homes_with_reachable=row[8],
                    wan_dropped=row[9],
                    by_addr_kind=by_kind,
                )
            )
        return ExposureAggregate(
            config_name=acc["config"] if acc["config"] is not None else "",
            total_runs=acc["total"],
            failed=tuple(sorted(acc["failed"])),
            per_firewall=tuple(per_firewall),
        )


def _exposure_unit(
    index: int,
    *,
    seed: int,
    config_name: str,
    firewalls: tuple[str, ...],
    settle: float,
    fidelity: str,
):
    scenario = RolloutScenario(name="exposure", config_mix=((config_name, 1.0),))
    home = generate_home(index, seed, scenario)
    return tuple(
        ExposureSpec(
            home_id=home.home_id,
            sim_seed=home.sim_seed,
            config_name=config_name,
            firewall=firewall,
            device_names=home.device_names,
            settle=settle,
            fidelity=fidelity,
        )
        for firewall in firewalls
    )


def run_exposure_stream(
    homes: int,
    *,
    seed: int,
    config_name: str = "dual-stack",
    firewalls: Sequence[str] = FIREWALL_MODES,
    settle: float = DEFAULT_SETTLE,
    fidelity: str = "packet",
    shards: int = 1,
    timeout: Optional[float] = None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: Optional[ShardProgressFn] = None,
    cache: Optional[CacheSettings] = None,
) -> ExposureAggregate:
    """Scan ``homes`` synthetic homes under every firewall mode and fold the result.

    The home population is drawn once per index (via the fleet generator's
    scenario-independent streams) and shared by every firewall mode.
    Byte-identical at any shard count, in O(shards) memory; each shard
    generates its homes lazily from the seed.
    """
    if homes < 0:
        raise ValueError("homes must be >= 0")
    for firewall in firewalls:
        if firewall not in FIREWALL_MODES:
            raise ValueError(f"unknown firewall mode {firewall!r} (known: {', '.join(FIREWALL_MODES)})")
    if not firewalls:
        raise ValueError("need at least one firewall mode")
    config = resolve_config(config_name)
    if not config.ipv6:
        raise ValueError(f"config {config.name!r} has no IPv6; exposure needs a routed prefix")
    return run_sharded(
        homes,
        functools.partial(
            _exposure_unit,
            seed=seed,
            config_name=config.name,
            firewalls=tuple(firewalls),
            settle=settle,
            fidelity=fidelity,
        ),
        fold=ExposureFold(),
        worker=run_home_exposure,
        shards=shards,
        timeout=timeout,
        progress=progress,
        journal_dir=journal_dir,
        journal_token=spec_token(
            "exposure", homes, seed, config.name, tuple(firewalls), settle, fidelity, timeout
        ),
        checkpoint_every=checkpoint_every,
        cache=cache,
    )
