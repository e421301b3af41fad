"""Adversarial campaigns against the fleet: scanning + worm propagation.

Builds on the exposure subsystem's WAN attacker: where ``repro.exposure``
asks *what can one scanner find in one home*, this package asks what a
population-scale campaign does to the whole fleet — and what happens when
compromised homes start scanning on the attacker's behalf (Mirai over v6).

- :mod:`repro.adversary.analysis`   — per-home susceptibility (fleet worker)
- :mod:`repro.adversary.worm`       — strategy target space, SIR compartments
  and the epidemic loop
- :mod:`repro.adversary.population` — specs, sharded measurement, epidemic fold
"""

from repro.adversary.analysis import (
    STRATEGIES,
    DeviceSusceptibility,
    HomeSusceptibility,
    run_home_susceptibility,
)
from repro.adversary.population import (
    AdversaryAggregate,
    AdversaryFold,
    AdversarySpec,
    FirewallOutcome,
    run_adversary_stream,
)
from repro.adversary.worm import (
    EXTERNAL_SOURCE,
    CompromiseEvent,
    InfectionTimeline,
    TimelinePoint,
    WormParams,
    infection_probability,
    run_worm,
)

__all__ = [
    "STRATEGIES",
    "DeviceSusceptibility",
    "HomeSusceptibility",
    "run_home_susceptibility",
    "CompromiseEvent",
    "infection_probability",
    "AdversaryAggregate",
    "AdversaryFold",
    "AdversarySpec",
    "FirewallOutcome",
    "run_adversary_stream",
    "EXTERNAL_SOURCE",
    "TimelinePoint",
    "InfectionTimeline",
    "WormParams",
    "run_worm",
]
