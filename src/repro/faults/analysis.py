"""Per-home degradation analysis: the picklable fault-fleet worker.

``run_home_faults`` runs one home twice (or more): once clean and once per
fault schedule, **on the same simulator seed**. Because every schedule only
perturbs the run while its windows are active (and draws from its own RNG
stream), the clean run is an exact paired counterfactual — any delta in a
device's observable symptoms is caused by the injected fault, not by
resampling noise.

Each device x fault cell is classified as:

- ``unaffected`` — no symptom delta against the clean run (or the device was
  already non-functional without faults: the fault cannot take credit);
- ``recovered``  — extra symptoms appeared but stayed confined to the fault
  windows, the device passed its functionality test, and traffic resumed
  after the last window cleared (time-to-recover is measured from there);
- ``degraded``   — the device stayed functional but kept limping: symptoms
  persisted past the last window, or it survived only by falling back to
  IPv4 (the happy-eyeballs crutch);
- ``bricked``    — functional in the clean run, non-functional under the
  fault (the paper's functionality-loss outcome).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cache import cached_artifact, study_fingerprint
from repro.faults.schedule import FaultSchedule, get_fault
from repro.testbed.study import Study, resolve_home_inputs, run_home_study

if TYPE_CHECKING:
    from repro.faults.population import FaultSpec

OUTCOMES = ("unaffected", "recovered", "degraded", "bricked")


@dataclass(frozen=True)
class DeviceObservation:
    """Flat, picklable symptom record for one device in one run."""

    device: str
    functional: bool
    dns_queries: int
    dns_retries: int
    dns_timeouts: int
    dns_failures: int
    flow_attempts: int
    flow_successes: int
    flow_failures: int
    fallbacks: int
    last_symptom: Optional[float]           # most recent timeout/flow failure
    first_success_after: Optional[float]    # first flow success past `after`

    @property
    def symptom_count(self) -> int:
        return self.dns_timeouts + self.flow_failures


@dataclass(frozen=True)
class CellOutcome:
    """One device x fault classification within one home."""

    device: str
    fault: str
    outcome: str                       # one of OUTCOMES
    time_to_recover: Optional[float]   # seconds past the last fault window
    dns_retries: int                   # extra retries vs the clean run
    dns_timeouts: int
    flow_failures: int
    fallbacks: int


@dataclass(frozen=True)
class HomeFaultSummary:
    """One home's full device x fault outcome grid (picklable).

    The home and config that label it come from its :class:`FaultSpec`.
    """

    device_count: int
    cells: tuple[CellOutcome, ...]
    injected: tuple[tuple[str, int], ...]   # fault name -> injector event count

    def outcomes_for(self, fault: str) -> list[CellOutcome]:
        return [cell for cell in self.cells if cell.fault == fault]


def observe_study(study: Study, config_name: str, *, after: Optional[float] = None) -> dict[str, DeviceObservation]:
    """Collect each device's symptom record from a completed home study."""
    functionality = study.experiments[config_name].functionality
    observations: dict[str, DeviceObservation] = {}
    for device in study.testbed.devices:
        metrics = device.stack.metrics
        first_success_after = None
        if after is not None:
            later = [t for t in metrics.flow_success_times if t >= after]
            first_success_after = min(later) if later else None
        observations[device.name] = DeviceObservation(
            device=device.name,
            functional=bool(functionality.get(device.name, False)),
            dns_queries=metrics.dns_queries,
            dns_retries=metrics.dns_retries,
            dns_timeouts=metrics.dns_timeouts,
            dns_failures=metrics.dns_failures,
            flow_attempts=metrics.flow_attempts,
            flow_successes=metrics.flow_successes,
            flow_failures=metrics.flow_failures,
            fallbacks=metrics.fallbacks,
            last_symptom=metrics.last_symptom,
            first_success_after=first_success_after,
        )
    return observations


def classify_device(
    baseline: DeviceObservation,
    faulted: DeviceObservation,
    schedule: FaultSchedule,
) -> tuple[str, Optional[float]]:
    """Classify one device's fault run against its paired clean run."""
    if not baseline.functional:
        # The device could not perform its function even without the fault
        # (e.g. IPv6-only bricking, §5.1): the injected fault changes nothing
        # that matters, whatever extra noise it caused on the wire.
        return "unaffected", None
    if not faulted.functional:
        return "bricked", None

    extra_symptoms = faulted.symptom_count - baseline.symptom_count
    extra_fallbacks = faulted.fallbacks - baseline.fallbacks
    if extra_symptoms <= 0 and extra_fallbacks <= 0:
        return "unaffected", None

    last_end = schedule.last_end
    if extra_fallbacks > 0:
        # Functional, but only because happy-eyeballs rescued it onto IPv4:
        # the IPv6 path is still broken, so the device is degraded, not
        # recovered (the paper's silent dual-stack fallback).
        return "degraded", None
    if last_end is not None and faulted.last_symptom is not None and faulted.last_symptom > last_end:
        # Symptoms kept appearing after every window cleared: retry storms
        # outlived the outage.
        return "degraded", None

    ttr = None
    if last_end is not None and faulted.first_success_after is not None:
        ttr = max(0.0, faulted.first_success_after - last_end)
    return "recovered", ttr


def run_home_faults(spec: "FaultSpec", extra_schedules: tuple = ()) -> HomeFaultSummary:
    """The fleet worker: clean run + one run per fault, same seed, classified.

    ``extra_schedules`` accepts ad-hoc :class:`FaultSchedule` objects (keyed
    by their own name) on top of the named presets in ``spec.fault_names``.

    Both arms consult the ambient study cache. The **baseline arm** is
    fingerprinted by the clean closure alone, so every spec sharing a
    (seed, config, devices) triple — a schedule sweep split across specs,
    or a repeated ``--cache`` run — simulates it exactly once; the stored
    artifacts are the observation dicts, never the studies.
    """
    config, profiles = resolve_home_inputs(
        spec.config_name, spec.device_names, fidelity=spec.fidelity
    )

    def compute_baseline() -> dict[str, DeviceObservation]:
        study = run_home_study(spec.sim_seed, config, profiles)
        # The captures are large; only the observations leave this frame.
        with closing(study.testbed):
            return observe_study(study, config.name)

    clean_fp = study_fingerprint(sim_seed=spec.sim_seed, config=config, profiles=profiles)
    baseline = cached_artifact(clean_fp, "faults-baseline", compute_baseline)

    grid = [(name, get_fault(name)) for name in spec.fault_names]
    grid.extend((schedule.name, schedule) for schedule in extra_schedules)

    cells: list[CellOutcome] = []
    injected: list[tuple[str, int]] = []
    for fault_name, schedule in grid:

        def compute_arm(schedule=schedule):
            study = run_home_study(spec.sim_seed, config, profiles, fault_schedule=schedule)
            with closing(study.testbed):
                observed = observe_study(study, config.name, after=schedule.last_end)
                return observed, study.testbed.faults.counters.total

        arm_fp = study_fingerprint(sim_seed=spec.sim_seed, config=config, profiles=profiles, fault_schedule=schedule)
        observed, fault_events = cached_artifact(arm_fp, "faults-arm", compute_arm)
        injected.append((fault_name, fault_events))
        for name in sorted(observed):
            outcome, ttr = classify_device(baseline[name], observed[name], schedule)
            faulted = observed[name]
            base = baseline[name]
            cells.append(
                CellOutcome(
                    device=name,
                    fault=fault_name,
                    outcome=outcome,
                    time_to_recover=ttr,
                    dns_retries=max(0, faulted.dns_retries - base.dns_retries),
                    dns_timeouts=max(0, faulted.dns_timeouts - base.dns_timeouts),
                    flow_failures=max(0, faulted.flow_failures - base.flow_failures),
                    fallbacks=max(0, faulted.fallbacks - base.fallbacks),
                )
            )

    return HomeFaultSummary(
        device_count=len(spec.device_names),
        cells=tuple(cells),
        injected=tuple(injected),
    )
