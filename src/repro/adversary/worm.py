"""Worm propagation: an SIR epidemic over the fleet's measured WAN exposure.

:func:`repro.exposure.analysis.run_home_exposure` measured, with real probes
through each home's router firewall, which homes have an exploitable entry
point under the active strategy (``entries > 0``). This module adds no packet
simulation of its own, only targeting arithmetic and the epidemic clock,
which is what keeps the loop jobs-invariant.

A scanning vantage (the initial attacker on the open Internet, or later an
infected home's WAN side) emits probes at a fixed ``scan_rate`` against the
whole population. The three strategies differ only in the *space* those
probes are spread over (:func:`target_space`):

- ``eui64-sweep`` — enumerate OUI x NIC-suffix candidates in every home's
  routed /64 (``homes x eui64_space`` candidates);
- ``low-iid``     — the ``::1..`` hitlist against every /64
  (``homes x low_iid_space`` candidates);
- ``hitlist``     — replay the global list of *leaked* addresses (server
  logs, passive DNS); the space is the list itself, so even RFC 8981
  privacy addresses are probed — the strategy synthesis cannot touch.

The per-probe compromise probability of home *j* is ``entries_j / space``:
the number of home *j*'s exploitable entry addresses the strategy can aim
at, over the total space probes are spread across.

Every home sits in one of four compartments:

- ``immune``      — the home cannot be compromised by the active strategy at
  all: no routed IPv6, or no device with both a strategy-visible address and
  a WAN-reachable open TCP service (the firewall/address-policy gate);
- ``susceptible`` — at least one exploitable entry point exists;
- ``infected``    — compromised and actively scanning the population;
- ``removed``     — compromised, then patched/rebooted off the botnet (SIR
  recovery); it stops scanning but stays counted as compromised.

``run_worm`` runs the epidemic clock. An external bootstrap campaign scans
until ``seeds`` homes have fallen; every infected home then becomes another
scanning vantage (its WAN side sweeps the same population through the shared
Internet zone), so per-tick probe volume — and therefore spread speed —
grows with the infected count. With ``recovery`` set, infected homes are
patched off the botnet at rate ``dt/recovery`` per tick.

Determinism contract: homes are visited in sorted id order, all draws come
from one stream keyed by ``(seed, strategy, label)``, and the number of
draws per tick depends only on compartment sizes — never on dict order,
wall-clock, or worker scheduling. Serial and parallel measurement runs
therefore produce byte-identical timelines.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.exposure.analysis import STRATEGIES, HomeExposure

DEFAULT_SCAN_RATE = 2000.0   # probes per second per scanning vantage
DEFAULT_DT = 30.0            # epidemic clock tick (seconds)
DEFAULT_HORIZON = 3600.0     # worm duration (seconds)

# A replay list is compiled from global leaks (server logs, passive DNS), so
# the simulated fleet's addresses are a handful of entries in a much larger
# list; the attacker's probes spread over all of it. Without this the list
# would contain *only* our homes and every outbreak would saturate on the
# first tick, an artifact of the small closed population.
DEFAULT_HITLIST_BACKGROUND = 200_000

# ``source`` of an infection seeded from outside the population (the initial
# campaign vantage), as opposed to a peer home's id.
EXTERNAL_SOURCE = -1


def infection_probability(per_probe: float, probes: float) -> float:
    """P(at least one of ``probes`` independent probes lands): 1-(1-p)^n."""
    if per_probe <= 0.0 or probes <= 0.0:
        return 0.0
    if per_probe >= 1.0:
        return 1.0
    return 1.0 - (1.0 - per_probe) ** probes


def target_space(population: Mapping[int, HomeExposure], strategy: str, hitlist_background: int) -> int:
    """How many addresses one strategy's probes are spread over."""
    homes = population.values()
    if strategy == "hitlist":
        # The replay list holds every leaked address, exploitable or not
        # (probes aimed at a hardened device's leaked GUA are spent misses),
        # plus the global background the list was compiled from.
        local = sum(d.hitlist_entries for home in homes for d in home.devices)
        return local + hitlist_background if local else 0
    per_prefix = max(
        (home.eui64_space if strategy == "eui64-sweep" else home.low_iid_space for home in homes),
        default=0,
    )
    return len(population) * per_prefix


@dataclass(frozen=True)
class CompromiseEvent:
    """One home falling: when, which, and to whom."""

    time: float
    home_id: int
    source: int     # EXTERNAL_SOURCE, or the infecting peer home's id


@dataclass(frozen=True)
class TimelinePoint:
    """Compartment counts at one instant of the epidemic clock."""

    time: float
    susceptible: int
    infected: int
    removed: int
    immune: int

    @property
    def compromised(self) -> int:
        return self.infected + self.removed


@dataclass(frozen=True)
class WormParams:
    """Knobs of one worm outbreak (picklable, hashable)."""

    strategy: str = "eui64-sweep"
    scan_rate: float = DEFAULT_SCAN_RATE   # probes/sec per scanning vantage
    dt: float = DEFAULT_DT
    horizon: float = DEFAULT_HORIZON
    seeds: int = 1                         # bootstrap campaign stops here
    recovery: Optional[float] = None       # mean infectious period (None: SI)
    hitlist_background: int = DEFAULT_HITLIST_BACKGROUND

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r} (known: {', '.join(STRATEGIES)})")
        for name in ("scan_rate", "dt", "horizon", "recovery"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.scan_rate < 0:
            raise ValueError("scan_rate must be >= 0")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.recovery is not None and self.recovery <= 0:
            raise ValueError("recovery must be > 0 when set")
        if self.hitlist_background < 0:
            raise ValueError("hitlist_background must be >= 0")

    @property
    def probes_per_tick(self) -> float:
        return self.scan_rate * self.dt

    @property
    def removal_probability(self) -> float:
        """Per-tick chance an infected home is patched off the botnet."""
        if self.recovery is None:
            return 0.0
        return min(1.0, self.dt / self.recovery)


@dataclass(frozen=True)
class InfectionTimeline:
    """One complete outbreak: the compromise curve and its event log."""

    label: str
    strategy: str
    population: int
    initial_susceptible: int
    curve: tuple[TimelinePoint, ...]
    events: tuple[CompromiseEvent, ...]

    @property
    def final(self) -> TimelinePoint:
        return self.curve[-1]

    @property
    def compromised(self) -> int:
        return self.final.compromised

    @property
    def compromised_fraction(self) -> float:
        """Fraction of initially susceptible homes ever compromised."""
        if self.initial_susceptible == 0:
            return 0.0
        return self.compromised / self.initial_susceptible

    @property
    def first_compromise(self) -> Optional[float]:
        return self.events[0].time if self.events else None

    def time_to_fraction(self, fraction: float) -> Optional[float]:
        """First instant >= ``fraction`` of susceptible homes is compromised.

        None when the outbreak never got there within the horizon (or there
        was nothing to compromise in the first place).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if self.initial_susceptible == 0:
            return None
        needed = math.ceil(fraction * self.initial_susceptible)
        for point in self.curve:
            if point.compromised >= needed:
                return point.time
        return None

    @property
    def peer_spread(self) -> int:
        """Infections attributed to an infected peer, not the bootstrap."""
        return sum(1 for event in self.events if event.source != EXTERNAL_SOURCE)


def run_worm(
    population: Mapping[int, HomeExposure],
    params: WormParams,
    *,
    seed: int,
    label: str = "worm",
) -> InfectionTimeline:
    """Run one outbreak over the measured population, keyed by home id; fully deterministic."""
    space = target_space(population, params.strategy, params.hitlist_background)
    entries = {home_id: population[home_id].entries(params.strategy) for home_id in sorted(population)}
    status = {home_id: "susceptible" if count > 0 else "immune" for home_id, count in entries.items()}
    rng = random.Random(f"{seed}/worm/{params.strategy}/{label}")

    def snapshot(at: float) -> TimelinePoint:
        counts = Counter(status.values())
        return TimelinePoint(at, counts["susceptible"], counts["infected"], counts["removed"], counts["immune"])

    events: list[CompromiseEvent] = []
    curve = [snapshot(0.0)]
    now = 0.0
    while now < params.horizon:
        now = min(now + params.dt, params.horizon)

        # Vantage census at tick start: infected peers, plus the external
        # bootstrap campaign while fewer than `seeds` homes have fallen
        # (every event is one home's fall).
        scanners = [home_id for home_id, state in status.items() if state == "infected"]
        external = 1 if len(events) < params.seeds else 0
        total_probes = (len(scanners) + external) * params.probes_per_tick

        for home_id in [home_id for home_id, state in status.items() if state == "susceptible"]:
            chance = infection_probability(entries[home_id] / space if space > 0 else 0.0, total_probes)
            if rng.random() < chance:
                # Attribute the kill to one scanning vantage, peer scanners
                # first (they dominate probe volume once the botnet exists).
                source = rng.choice(scanners) if scanners else EXTERNAL_SOURCE
                status[home_id] = "infected"
                events.append(CompromiseEvent(now, home_id, source))

        if params.removal_probability > 0.0:
            for home_id in scanners:    # only homes infected before this tick
                if rng.random() < params.removal_probability:
                    status[home_id] = "removed"

        curve.append(snapshot(now))

    return InfectionTimeline(
        label=label,
        strategy=params.strategy,
        population=len(status),
        initial_susceptible=curve[0].susceptible,
        curve=tuple(curve),
        events=tuple(events),
    )
