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
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cache import CacheSettings
from repro.exposure.analysis import ExposureSpec, run_home_exposure
from repro.fleet.scenario import RolloutScenario, generate_home
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, from_tally, run_sharded
from repro.stack.firewall import FIREWALL_MODES, firewall_sort_key
from repro.testbed.study import resolve_config

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


# --------------------------------------------------------- streaming fold


@dataclass(frozen=True)
class ExposureFold(Fold):
    """Fold one home's (home x firewall) scan grid into per-mode counters.

    Each firewall mode gets a counter row keyed by :class:`FirewallStats`
    field names, with a nested :class:`AddrKindStats` row per address kind,
    so every slot merges exactly. The config is a run parameter the stream
    sets, so a run in which every scan fails still names it.
    """

    config_name: str
    cell = "firewall"

    def count(self, acc, completed):
        for result in completed:
            summary = result.summary
            row = acc.setdefault("fw", {}).setdefault(result.spec.firewall, Counter())
            row["homes"] += 1
            row["devices"] += len(summary.devices)
            row["discoverable_devices"] += sum(1 for d in summary.devices if d.discoverable)
            row["responsive_devices"] += sum(1 for d in summary.devices if d.responsive)
            row["reachable_devices"] += sum(1 for d in summary.devices if d.reachable)
            row["open_tcp_ports"] += sum(len(d.open_tcp) for d in summary.devices)
            row["open_udp_ports"] += sum(len(d.open_udp) for d in summary.devices)
            row["homes_with_discoverable"] += 1 if summary.discoverable_devices else 0
            row["homes_with_reachable"] += summary.any_reachable
            row["wan_dropped"] += summary.wan_dropped
            kinds = row.setdefault("by_addr_kind", {})
            for device in summary.devices:
                kind = kinds.setdefault(device.addr_kind, Counter())
                kind["devices"] += 1
                kind["discoverable"] += device.discoverable
                kind["reachable"] += device.reachable
        return acc

    def finalize(self, acc) -> ExposureAggregate:
        rows = acc.get("fw", {})
        per_firewall = []
        for firewall in sorted(rows, key=firewall_sort_key):
            kinds = rows[firewall].get("by_addr_kind", {})
            by_kind = tuple(from_tally(AddrKindStats, kinds[kind], kind=kind) for kind in sorted(kinds))
            per_firewall.append(from_tally(FirewallStats, rows[firewall], firewall=firewall, by_addr_kind=by_kind))
        return ExposureAggregate(
            config_name=self.config_name,
            total_runs=acc["total_runs"],
            failed=self.failed(acc),
            per_firewall=tuple(per_firewall),
        )


def _exposure_unit(
    index: int,
    *,
    seed: int,
    config_name: str,
    firewalls: tuple[str, ...],
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
            fidelity=fidelity,
        ),
        fold=ExposureFold(config_name=config.name),
        worker=run_home_exposure,
        shards=shards,
        timeout=timeout,
        progress=progress,
        journal_dir=journal_dir,
        checkpoint_every=checkpoint_every,
        cache=cache,
    )
