"""Scanning campaigns: strategy targeting math.

A campaign is a vantage point (the initial attacker on the open Internet, or
later an infected home's WAN side; :mod:`repro.adversary.worm` runs both)
emitting probes at a fixed ``scan_rate`` against the whole fleet
population. The three strategies differ only in the *space* those probes
are spread over:

- ``eui64-sweep`` — enumerate OUI x NIC-suffix candidates in every home's
  routed /64 (``population x eui64_space`` candidates);
- ``low-iid``     — the ``::1..`` hitlist against every /64
  (``population x low_iid_space`` candidates);
- ``hitlist``     — replay the global list of *leaked* addresses (server
  logs, passive DNS); the space is the list itself, so even RFC 8981
  privacy addresses are probed — the strategy synthesis cannot touch.

The per-probe compromise probability of home *j* is
``entries_j / space``: the number of home *j*'s exploitable entry addresses
the strategy can aim at, over the total space probes are spread across.
Entries come from :class:`repro.adversary.analysis.HomeSusceptibility`, i.e.
from real WAN probes through each home's firewall — the campaign layer adds
no packet simulation of its own, only targeting arithmetic, which is what
keeps the epidemic loop jobs-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.adversary.analysis import STRATEGIES, HomeSusceptibility

DEFAULT_SCAN_RATE = 2000.0   # probes per second per scanning vantage
DEFAULT_DT = 30.0            # epidemic clock tick (seconds)
DEFAULT_HORIZON = 3600.0     # campaign/worm duration (seconds)

# A replay list is compiled from global leaks (server logs, passive DNS), so
# the simulated fleet's addresses are a handful of entries in a much larger
# list; the attacker's probes spread over all of it. Without this the list
# would contain *only* our homes and every outbreak would saturate on the
# first tick, an artifact of the small closed population.
DEFAULT_HITLIST_BACKGROUND = 200_000


def validate_strategy(name: str) -> str:
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r} (known: {', '.join(STRATEGIES)})")
    return name


def infection_probability(per_probe: float, probes: float) -> float:
    """P(at least one of ``probes`` independent probes lands): 1-(1-p)^n."""
    if per_probe <= 0.0 or probes <= 0.0:
        return 0.0
    if per_probe >= 1.0:
        return 1.0
    return 1.0 - (1.0 - per_probe) ** probes


class TargetModel:
    """Per-probe compromise probability of every home, for one strategy.

    Pure arithmetic over the susceptibility summaries, keyed by the home ids
    their specs carry; what the worm's scanning vantages can hit.
    """

    def __init__(
        self,
        population: Mapping[int, HomeSusceptibility],
        strategy: str,
        *,
        hitlist_background: int = DEFAULT_HITLIST_BACKGROUND,
    ):
        self.strategy = validate_strategy(strategy)
        self.homes = dict(sorted(population.items()))
        self._entries = {home_id: home.entries(strategy) for home_id, home in self.homes.items()}
        homes = self.homes.values()
        if strategy == "hitlist":
            # The replay list holds every leaked address, exploitable or not
            # (probes aimed at a hardened device's leaked GUA are spent
            # misses), plus the global background the list was compiled from.
            local = sum(d.hitlist_entries for home in homes for d in home.devices)
            self.space = local + (hitlist_background if local else 0)
        else:
            per_prefix = max(
                (home.eui64_space if strategy == "eui64-sweep" else home.low_iid_space for home in homes),
                default=0,
            )
            self.space = len(self.homes) * per_prefix

    def probability(self, home_id: int) -> float:
        """Per-probe probability that one probe compromises ``home_id``."""
        if self.space <= 0:
            return 0.0
        return self._entries[home_id] / self.space

    def susceptible(self, home_id: int) -> bool:
        return self._entries[home_id] > 0

    def memberships(self) -> list[tuple[int, bool]]:
        """``(home_id, susceptible)`` pairs for :class:`EpidemicState`, by id."""
        return [(home_id, self.susceptible(home_id)) for home_id in self.homes]


@dataclass(frozen=True)
class CompromiseEvent:
    """One home falling: when, which, and to whom."""

    time: float
    home_id: int
    source: int     # EXTERNAL_SOURCE, or the infecting peer home's id
