"""repro.faults — network impairment and retry-behavior analysis.

The subsystem has three layers:

- :mod:`repro.faults.schedule` — pure-data :class:`FaultSchedule` objects
  (what degrades, when, how hard) plus the named presets;
- :mod:`repro.faults.inject` — wiring a schedule into a live testbed's link
  and router as pull-hooks (wire-invisible while no window is active);
- :mod:`repro.faults.analysis` / :mod:`repro.faults.population` — paired
  clean-vs-faulted runs classified per device x config x fault cell
  (*unaffected / recovered / degraded / bricked*) and aggregated over the
  synthetic-home population.
"""

from repro.faults.analysis import (
    CellOutcome,
    DeviceObservation,
    HomeFaultSummary,
    OUTCOMES,
    classify_device,
    observe_study,
    run_home_faults,
)
from repro.faults.inject import FaultCounters, FaultInjector, LinkImpairment, RouterFaultState
from repro.faults.population import (
    CellStats,
    DEFAULT_CONFIGS,
    DEFAULT_FAULTS,
    FaultAggregate,
    FaultFold,
    FaultSpec,
    TtrStats,
    run_faults_stream,
)
from repro.faults.schedule import (
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultSchedule,
    FaultWindow,
    NO_FAULTS,
    get_fault,
)

__all__ = [
    "CellOutcome",
    "CellStats",
    "DEFAULT_CONFIGS",
    "DEFAULT_FAULTS",
    "DeviceObservation",
    "FAULT_KINDS",
    "FAULT_PRESETS",
    "FaultAggregate",
    "FaultFold",
    "FaultCounters",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "FaultWindow",
    "HomeFaultSummary",
    "LinkImpairment",
    "NO_FAULTS",
    "OUTCOMES",
    "RouterFaultState",
    "TtrStats",
    "classify_device",
    "get_fault",
    "observe_study",
    "run_faults_stream",
    "run_home_faults",
]
