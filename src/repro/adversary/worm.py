"""Worm propagation: an SIR epidemic over the fleet's measured susceptibility.

Composition of the two layers below it:

- :mod:`repro.adversary.analysis` measured, with real probes through each
  home's router firewall, which homes have an exploitable entry point under
  the active strategy (``entries > 0``);
- :mod:`repro.adversary.campaign` turned those measurements into per-probe
  compromise probabilities.

``run_worm`` adds the epidemic clock. An external bootstrap campaign scans
until ``seeds`` homes have fallen; every infected home then becomes another
scanning vantage (its WAN side sweeps the same population through the shared
Internet zone), so per-tick probe volume — and therefore spread speed —
grows with the infected count. With ``recovery`` set, infected homes are
patched off the botnet at rate ``dt/recovery`` per tick (SIR removal); they
stop scanning but remain *compromised* in every report, because a patched
box was still owned.

Determinism contract: homes are visited in sorted id order, all draws come
from one stream keyed by ``(seed, strategy, label)``, and the number of
draws per tick depends only on compartment sizes — never on dict order,
wall-clock, or worker scheduling. Serial and parallel susceptibility runs
therefore produce byte-identical timelines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.adversary.analysis import HomeSusceptibility
from repro.adversary.campaign import (
    DEFAULT_DT,
    DEFAULT_HITLIST_BACKGROUND,
    DEFAULT_HORIZON,
    DEFAULT_SCAN_RATE,
    CompromiseEvent,
    TargetModel,
    infection_probability,
    validate_strategy,
)
from repro.adversary.state import EXTERNAL_SOURCE, EpidemicState, TimelinePoint


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
        validate_strategy(self.strategy)
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
    population: Mapping[int, HomeSusceptibility],
    params: WormParams,
    *,
    seed: int,
    label: str = "worm",
) -> InfectionTimeline:
    """Run one outbreak over the measured population, keyed by home id; fully deterministic."""
    model = TargetModel(population, params.strategy, hitlist_background=params.hitlist_background)
    state = EpidemicState(model.memberships())
    rng = random.Random(f"{seed}/worm/{params.strategy}/{label}")

    events: list[CompromiseEvent] = []
    curve = [state.snapshot(0.0)]
    now = 0.0
    while now < params.horizon:
        now = min(now + params.dt, params.horizon)

        # Vantage census at tick start: infected peers, plus the external
        # bootstrap campaign while fewer than `seeds` homes have fallen.
        scanners = state.infected_ids
        compromised = len(state.compromised_ids)
        external = 1 if compromised < params.seeds else 0
        total_probes = (len(scanners) + external) * params.probes_per_tick

        for home_id in state.susceptible_ids:
            chance = infection_probability(model.probability(home_id), total_probes)
            if rng.random() < chance:
                # Attribute the kill to one scanning vantage, peer scanners
                # first (they dominate probe volume once the botnet exists).
                source = rng.choice(scanners) if scanners else EXTERNAL_SOURCE
                state.infect(home_id, now, source)
                events.append(CompromiseEvent(now, home_id, source))

        if params.removal_probability > 0.0:
            for home_id in scanners:    # only homes infected before this tick
                if rng.random() < params.removal_probability:
                    state.remove(home_id, now)

        curve.append(state.snapshot(now))

    return InfectionTimeline(
        label=label,
        strategy=params.strategy,
        population=len(model.homes),
        initial_susceptible=curve[0].susceptible,
        curve=tuple(curve),
        events=tuple(events),
    )
