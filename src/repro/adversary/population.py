"""Population-scale adversary analytics: specs, sharded measurement, epidemic.

Two-phase architecture, chosen for the shard-invariance contract:

1. **Measurement phase (sharded).** Every (home, firewall) cell is an
   :class:`~repro.exposure.analysis.ExposureSpec` with ``leak=True`` (and
   the run's ``fault_name``), and :func:`run_adversary_stream` fans the
   homes out over :func:`~repro.fleet.shard.run_sharded` to the exposure
   worker, :func:`~repro.exposure.analysis.run_home_exposure`. Each worker
   runs the full packet-level measurement (autoconfigure, optional fault
   schedule, one leaking check-in, WAN probes through the firewall) and
   returns a flat :class:`~repro.exposure.analysis.HomeExposure`.
2. **Epidemic phase (serial).** :class:`AdversaryFold` keys the merged
   summaries by their specs' home ids, then runs the deterministic worm
   loop per firewall column. Because the loop is pure arithmetic over the
   homes in id order with its own seeded stream, the rendered output is
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
from typing import Iterable, Optional, Sequence

from repro.adversary.worm import InfectionTimeline, WormParams, run_worm
from repro.cache import CacheSettings
from repro.exposure.analysis import ExposureSpec, HomeExposure, run_home_exposure
from repro.faults.schedule import NO_FAULTS, get_fault
from repro.fleet.scenario import RolloutScenario, generate_home, get_scenario
from repro.fleet.shard import DEFAULT_CHECKPOINT_EVERY, Fold, ShardProgressFn, run_sharded
from repro.stack.firewall import FIREWALL_MODES, firewall_sort_key


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


def _addr_kind_stats(population: Iterable[HomeExposure], strategy: str) -> tuple[AddrKindAdversaryStats, ...]:
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
    population: dict[int, HomeExposure], strategy: str, timeline: InfectionTimeline
) -> tuple[ConfigOutcome, ...]:
    compromised_ids = {event.home_id for event in timeline.events}
    configs = sorted({home.config_name for home in population.values()})
    return tuple(
        ConfigOutcome(
            config_name=config,
            homes=sum(1 for h in population.values() if h.config_name == config),
            susceptible=sum(1 for h in population.values() if h.config_name == config and h.susceptible(strategy)),
            compromised=sum(
                1 for home_id, h in population.items() if h.config_name == config and home_id in compromised_ids
            ),
        )
        for config in configs
    )


def _outcome_for(
    firewall: str, population: dict[int, HomeExposure], params: WormParams, seed: int
) -> FirewallOutcome:
    timeline = run_worm(population, params, seed=seed, label=firewall)
    homes = population.values()
    return FirewallOutcome(
        firewall=firewall,
        homes=len(population),
        immune_homes=sum(1 for home in homes if home.immune),
        susceptible_homes=sum(1 for home in homes if home.susceptible(params.strategy)),
        probes_sent=sum(home.probes_sent for home in homes),
        wan_dropped=sum(home.wan_dropped for home in homes),
        fault_events=sum(home.fault_events for home in homes),
        timeline=timeline,
        by_addr_kind=_addr_kind_stats(homes, params.strategy),
        by_config=_config_outcomes(population, params.strategy, timeline),
    )


# --------------------------------------------------------- streaming fold


@dataclass(frozen=True)
class AdversaryFold(Fold):
    """Fold (home x firewall) measurement cells toward the epidemic phase.

    The adversary layer is the one deliberate exception to O(shards)
    accumulators: the worm loop is *global* serial arithmetic over the whole
    per-firewall population, so each shard retains its slice's
    ``(home_id, HomeExposure)`` pairs (a few hundred bytes per home, tiny
    next to the simulations that produced them) and the epidemic runs once,
    at finalize, over the merged population. The measurement, all the
    actual simulation, still streams and shards like every other subsystem.
    The scenario and fault are run parameters the stream sets, so a run in
    which every cell fails still names them.
    """

    params: WormParams
    seed: int
    scenario_name: str = ""
    fault_name: str = NO_FAULTS.name
    cell = "firewall"

    def count(self, acc, completed):
        for result in completed:
            spec = result.spec
            acc.setdefault("fw", {}).setdefault(spec.firewall, []).append((spec.home_id, result.summary))
        return acc

    def finalize(self, acc) -> AdversaryAggregate:
        populations = acc.get("fw", {})
        return AdversaryAggregate(
            scenario_name=self.scenario_name,
            fault_name=self.fault_name,
            params=self.params,
            seed=self.seed,
            total_runs=acc["total_runs"],
            failed=self.failed(acc),
            per_firewall=tuple(
                _outcome_for(firewall, dict(populations[firewall]), self.params, self.seed)
                for firewall in sorted(populations, key=firewall_sort_key)
            ),
        )


def _adversary_unit(
    index: int,
    *,
    seed: int,
    scenario: RolloutScenario,
    firewalls: tuple[str, ...],
    fault_name: str,
    fidelity: str,
):
    home = generate_home(index, seed, scenario)
    return tuple(
        ExposureSpec(
            home_id=home.home_id,
            sim_seed=home.sim_seed,
            config_name=home.config_name,
            firewall=firewall,
            device_names=home.device_names,
            fault_name=fault_name,
            leak=True,
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
            fidelity=fidelity,
        ),
        fold=AdversaryFold(params=params, seed=seed, scenario_name=scenario.name, fault_name=fault_name),
        worker=run_home_exposure,
        shards=shards,
        timeout=timeout,
        progress=progress,
        journal_dir=journal_dir,
        checkpoint_every=checkpoint_every,
        cache=cache,
    )
