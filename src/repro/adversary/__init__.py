"""Adversarial campaigns against the fleet: scanning + worm propagation.

Builds on the exposure subsystem's WAN attacker: where ``repro.exposure``
asks *what can one scanner find in one home*, this package asks what a
population-scale campaign does to the whole fleet — and what happens when
compromised homes start scanning on the attacker's behalf (Mirai over v6).

The per-home measurement is the exposure worker,
:func:`repro.exposure.analysis.run_home_exposure`, on an
:class:`~repro.exposure.analysis.ExposureSpec` with ``leak=True``: one
check-in per device leaks the addresses a hitlist replays, and the run's
``fault_name`` attaches its fault schedule. This package adds

- :mod:`repro.adversary.worm`       — strategy target space, SIR compartments
  and the epidemic loop
- :mod:`repro.adversary.population` — specs, sharded measurement, epidemic fold
"""

from repro.adversary.population import (
    AdversaryAggregate,
    AdversaryFold,
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
    "CompromiseEvent",
    "infection_probability",
    "AdversaryAggregate",
    "AdversaryFold",
    "FirewallOutcome",
    "run_adversary_stream",
    "EXTERNAL_SOURCE",
    "TimelinePoint",
    "InfectionTimeline",
    "WormParams",
    "run_worm",
]
