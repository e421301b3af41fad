"""Population-scale adversary analytics: specs, sharded measurement, epidemic.

Two-phase architecture, chosen for the shard-invariance contract:

1. **Susceptibility phase (sharded).** Every (home, firewall) cell is an
   :class:`AdversarySpec` — a picklable, seeded simulator input — and
   :func:`run_adversary_stream` fans the homes out over
   :func:`~repro.fleet.shard.run_sharded`. Each worker runs the full
   packet-level measurement (autoconfigure, optional fault schedule, WAN
   probes through the firewall) and returns a flat
   :class:`~repro.adversary.analysis.HomeSusceptibility`.
2. **Epidemic phase (serial).** :class:`AdversaryFold` sorts the merged
   susceptibilities by home, then runs the deterministic campaign/worm loop
   per firewall column. Because the loop is pure arithmetic over sorted
   summaries with its own seeded stream, the rendered output is
   byte-identical whatever ``--shards`` was.

Homes are drawn through the fleet generator's scenario machinery, so the
*fleet mix* axis (dual-stack vs IPv6-only vs stateful rollouts) composes
with firewall mode and address-generation policy exactly like the paper's
rollout sweeps — and the common-random-numbers property means every firewall
column attacks the **same** home population.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.adversary.analysis import HomeSusceptibility, run_home_susceptibility
from repro.adversary.worm import InfectionTimeline, WormParams, run_worm
from repro.cache import CacheSettings
from repro.faults.schedule import NO_FAULTS, get_fault
from repro.fleet.scenario import RolloutScenario, generate_home, get_scenario
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, run_sharded
from repro.fleet.store import spec_token
from repro.fleet.stream import failure_line
from repro.stack.firewall import FIREWALL_MODES

DEFAULT_SETTLE = 150.0  # sim-seconds of autoconfiguration before the probes


@dataclass(frozen=True)
class AdversarySpec:
    """One (home, firewall) susceptibility cell: seeded, picklable input."""

    home_id: int
    sim_seed: int
    config_name: str
    firewall: str
    fault_name: str
    device_names: tuple[str, ...]
    settle: float = DEFAULT_SETTLE
    fidelity: str = "packet"

    @property
    def size(self) -> int:
        return len(self.device_names)


# ------------------------------------------------------------- aggregation


@dataclass(frozen=True)
class AddrKindAdversaryStats:
    """Attack surface by headline address kind, one firewall mode."""

    kind: str
    devices: int
    exploitable: int            # devices with a WAN-reachable open TCP port
    entry_addresses: int        # strategy-visible addresses on those devices


@dataclass(frozen=True)
class ConfigOutcome:
    """Epidemic outcome per network config (the fleet-mix axis)."""

    config_name: str
    homes: int
    susceptible: int
    compromised: int


@dataclass(frozen=True)
class FirewallOutcome:
    """One firewall column: measured surface plus its worm timeline."""

    firewall: str
    homes: int
    immune_homes: int
    susceptible_homes: int
    probes_sent: int
    wan_dropped: int
    fault_events: int
    timeline: InfectionTimeline
    by_addr_kind: tuple[AddrKindAdversaryStats, ...]
    by_config: tuple[ConfigOutcome, ...]


@dataclass(frozen=True)
class AdversaryAggregate:
    """The whole campaign: one worm outbreak per firewall mode."""

    scenario_name: str
    fault_name: str
    params: WormParams
    seed: int
    total_runs: int
    failed: tuple[tuple[int, str, str], ...]   # (home_id, firewall, error)
    per_firewall: tuple[FirewallOutcome, ...]

    @property
    def completed(self) -> int:
        return self.total_runs - len(self.failed)

    def outcome_for(self, firewall: str) -> FirewallOutcome:
        for outcome in self.per_firewall:
            if outcome.firewall == firewall:
                return outcome
        raise KeyError(firewall)


def _firewall_order(firewall: str) -> tuple:
    try:
        return (FIREWALL_MODES.index(firewall), firewall)
    except ValueError:
        return (len(FIREWALL_MODES), firewall)


def _addr_kind_stats(population: list[HomeSusceptibility], strategy: str) -> tuple[AddrKindAdversaryStats, ...]:
    devices = [device for home in population for device in home.devices]
    kinds = sorted({device.addr_kind for device in devices})
    return tuple(
        AddrKindAdversaryStats(
            kind=kind,
            devices=sum(1 for d in devices if d.addr_kind == kind),
            exploitable=sum(1 for d in devices if d.addr_kind == kind and d.exploitable),
            entry_addresses=sum(d.entries(strategy) for d in devices if d.addr_kind == kind and d.exploitable),
        )
        for kind in kinds
    )


def _config_outcomes(
    population: list[HomeSusceptibility], strategy: str, timeline: InfectionTimeline
) -> tuple[ConfigOutcome, ...]:
    compromised_ids = {event.home_id for event in timeline.events}
    configs = sorted({home.config_name for home in population})
    return tuple(
        ConfigOutcome(
            config_name=config,
            homes=sum(1 for h in population if h.config_name == config),
            susceptible=sum(1 for h in population if h.config_name == config and h.susceptible(strategy)),
            compromised=sum(
                1 for h in population if h.config_name == config and h.home_id in compromised_ids
            ),
        )
        for config in configs
    )


def _outcome_for(firewall: str, population: list[HomeSusceptibility], params: WormParams, seed: int) -> FirewallOutcome:
    population = sorted(population, key=lambda home: home.home_id)
    timeline = run_worm(population, params, seed=seed, label=firewall)
    return FirewallOutcome(
        firewall=firewall,
        homes=len(population),
        immune_homes=sum(1 for home in population if home.immune),
        susceptible_homes=sum(1 for home in population if home.susceptible(params.strategy)),
        probes_sent=sum(home.probes_sent for home in population),
        wan_dropped=sum(home.wan_dropped for home in population),
        fault_events=sum(home.fault_events for home in population),
        timeline=timeline,
        by_addr_kind=_addr_kind_stats(population, params.strategy),
        by_config=_config_outcomes(population, params.strategy, timeline),
    )


# --------------------------------------------------------- streaming fold


@dataclass(frozen=True)
class AdversaryFold(Fold):
    """Fold (home x firewall) susceptibility cells toward the epidemic phase.

    The adversary layer is the one deliberate exception to O(shards)
    accumulators: the worm loop is *global* serial arithmetic over the whole
    per-firewall population, so each shard retains its slice's flat
    :class:`~repro.adversary.analysis.HomeSusceptibility` records (a few
    hundred bytes per home — tiny next to the simulations that produced
    them) and the epidemic runs once, at finalize, over the merged
    population. Susceptibility measurement — all the actual simulation —
    still streams and shards like every other subsystem.
    """

    params: WormParams
    seed: int
    scenario_name: str = ""

    def empty(self):
        return {
            "total": 0,
            "failed": [],  # (home_id, firewall, first error line)
            "fault": None,
            "fw": {},  # firewall -> [HomeSusceptibility, ...]
        }

    def add(self, acc, outcomes):
        for result in outcomes:
            acc["total"] += 1
            spec = result.spec
            if not result.ok:
                acc["failed"].append((spec.home_id, spec.firewall, failure_line(result.error)))
                continue
            acc["fault"] = result.summary.fault
            acc["fw"].setdefault(spec.firewall, []).append(result.summary)
        return acc

    def merge(self, left, right):
        left["total"] += right["total"]
        left["failed"].extend(right["failed"])
        if right["fault"] is not None:
            left["fault"] = right["fault"]
        for firewall, population in right["fw"].items():
            left["fw"].setdefault(firewall, []).extend(population)
        return left

    def finalize(self, acc) -> AdversaryAggregate:
        per_firewall = tuple(
            _outcome_for(firewall, population, self.params, self.seed)
            for firewall, population in sorted(
                acc["fw"].items(), key=lambda item: _firewall_order(item[0])
            )
        )
        return AdversaryAggregate(
            scenario_name=self.scenario_name,
            fault_name=acc["fault"] if acc["fault"] is not None else NO_FAULTS.name,
            params=self.params,
            seed=self.seed,
            total_runs=acc["total"],
            failed=tuple(sorted(acc["failed"])),
            per_firewall=per_firewall,
        )


def _adversary_unit(
    index: int,
    *,
    seed: int,
    scenario: RolloutScenario,
    firewalls: tuple[str, ...],
    fault_name: str,
    settle: float,
    fidelity: str,
):
    home = generate_home(index, seed, scenario)
    return tuple(
        AdversarySpec(
            home_id=home.home_id,
            sim_seed=home.sim_seed,
            config_name=home.config_name,
            firewall=firewall,
            fault_name=fault_name,
            device_names=home.device_names,
            settle=settle,
            fidelity=fidelity,
        )
        for firewall in firewalls
    )


def run_adversary_stream(
    homes: int,
    *,
    seed: int,
    params: WormParams,
    scenario: RolloutScenario | str = "baseline",
    firewalls: Sequence[str] = FIREWALL_MODES,
    fault_name: str = NO_FAULTS.name,
    settle: float = DEFAULT_SETTLE,
    fidelity: str = "packet",
    shards: int = 1,
    timeout: Optional[float] = None,
    journal_dir: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: Optional[ShardProgressFn] = None,
    cache: Optional[CacheSettings] = None,
) -> AdversaryAggregate:
    """Measure ``homes`` homes under every firewall mode, then run one outbreak per mode.

    Configs come from the rollout scenario's mix (the fleet axis), and
    IPv4-only draws are kept: they are immune population members, which the
    epidemic accounting must see. ``fault_name`` rides into every worker
    unchanged so faulted and clean populations stay paired. ``seed`` plays
    the same double role as in the CLI: it draws the home population and
    seeds the epidemic phase. Byte-identical at any shard count.
    """
    if homes < 0:
        raise ValueError("homes must be >= 0")
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    for firewall in firewalls:
        if firewall not in FIREWALL_MODES:
            raise ValueError(f"unknown firewall mode {firewall!r} (known: {', '.join(FIREWALL_MODES)})")
    if not firewalls:
        raise ValueError("need at least one firewall mode")
    get_fault(fault_name)  # fail fast on unknown presets, before any worker
    return run_sharded(
        homes,
        functools.partial(
            _adversary_unit,
            seed=seed,
            scenario=scenario,
            firewalls=tuple(firewalls),
            fault_name=fault_name,
            settle=settle,
            fidelity=fidelity,
        ),
        fold=AdversaryFold(params=params, seed=seed, scenario_name=scenario.name),
        worker=run_home_susceptibility,
        shards=shards,
        timeout=timeout,
        progress=progress,
        journal_dir=journal_dir,
        journal_token=spec_token(
            "adversary",
            homes,
            seed,
            scenario,
            tuple(firewalls),
            fault_name,
            settle,
            fidelity,
            params,
            timeout,
        ),
        checkpoint_every=checkpoint_every,
        cache=cache,
    )
