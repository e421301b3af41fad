"""Adversarial campaigns against the fleet: scanning + worm propagation.

Builds on the exposure subsystem's WAN attacker: where ``repro.exposure``
asks *what can one scanner find in one home*, this package asks what a
population-scale campaign does to the whole fleet — and what happens when
compromised homes start scanning on the attacker's behalf (Mirai over v6).

- :mod:`repro.adversary.analysis`   — per-home susceptibility (fleet worker)
- :mod:`repro.adversary.campaign`   — strategy targeting math + bootstrap
- :mod:`repro.adversary.state`      — SIR compartments and timelines
- :mod:`repro.adversary.worm`       — the epidemic loop
- :mod:`repro.adversary.population` — specs, sharded measurement, epidemic fold
"""

from repro.adversary.analysis import (
    STRATEGIES,
    DeviceSusceptibility,
    HomeSusceptibility,
    run_home_susceptibility,
)
from repro.adversary.campaign import (
    CampaignParams,
    CampaignResult,
    CompromiseEvent,
    TargetModel,
    infection_probability,
    run_campaign,
)
from repro.adversary.population import (
    AdversaryAggregate,
    AdversaryFold,
    AdversarySpec,
    FirewallOutcome,
    run_adversary_stream,
)
from repro.adversary.state import EXTERNAL_SOURCE, EpidemicState, HomeState, TimelinePoint
from repro.adversary.worm import InfectionTimeline, WormParams, run_worm

__all__ = [
    "STRATEGIES",
    "DeviceSusceptibility",
    "HomeSusceptibility",
    "run_home_susceptibility",
    "CampaignParams",
    "CampaignResult",
    "CompromiseEvent",
    "TargetModel",
    "infection_probability",
    "run_campaign",
    "AdversaryAggregate",
    "AdversaryFold",
    "AdversarySpec",
    "FirewallOutcome",
    "run_adversary_stream",
    "EXTERNAL_SOURCE",
    "EpidemicState",
    "HomeState",
    "TimelinePoint",
    "InfectionTimeline",
    "WormParams",
    "run_worm",
]
