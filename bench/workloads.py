"""The four benchmark workloads, as the program's users run them.

Each workload is a closed loop with one caller: a *pass* is one fixed input
built from the seed, and inside a pass each experiment or home starts when
the previous one ends. A pass returns the bytes it rendered, so the runner
can check them.

The population workloads drive the streaming fold the ``run_*_stream``
entry points are built on (``run_sharded`` with the subsystem's fold and
worker, ``shards=1``). Their homes are one fixed population, drawn at
``POPULATION_SEED``; the run's seed gives every home its simulator seed. A
pass therefore costs the same at every seed, so a run's time measures the
program and not the portfolios a seed happens to draw, while the simulated
traffic, addresses and fault timings still differ from seed to seed. They
also time every home, with a span around the worker where the pass looks it
up by name: ``simulate_home`` in the fleet stream module and
``run_home_faults`` in the faults population module.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import reports
from repro.cache import CacheSettings, process_counters, reset_process_caches
from repro.core.analysis import StudyAnalysis
from repro.faults import population as faults_population
from repro.fleet import scenario as fleet_scenario
from repro.fleet import shard as fleet_shard
from repro.fleet import stream as fleet_stream
from repro.fleet.store import spec_token
from repro.testbed import study as testbed_study
from stats import p90
from tracer import Tracer

STUDY_SECTIONS = (
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table12",
    "table13",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
)
# The homes of both population workloads: fleet-flow runs the first
# FLEET_HOMES of this population, faults-cached the first FAULT_HOMES.
POPULATION_SEED = 1
# About 2.6 s and 3.1 s a pass on a 2-vCPU 2.1 GHz Xeon VM, so a 30 s run
# has ten passes and its median pass shrugs off a slow spell of the machine.
FLEET_HOMES = 24
FLEET_SCENARIO = "flip50"
FAULT_HOMES = 4
FAULT_CONFIGS = ("ipv6-only",)
# Every preset except "none": each home runs a clean baseline plus 8 arms.
FAULT_NAMES = (
    "dhcpv6-outage",
    "dns-blackout",
    "dns-brownout",
    "flaky-lan",
    "ra-blackout",
    "ra-settle-outage",
    "uplink-flap",
    "v6-brownout",
)
FAULT_CHECKPOINT_EVERY = 1
WARM_PASSES = 5
STUDIES_PER_FAULT_HOME = 1 + len(FAULT_NAMES)

Metrics = dict[str, tuple[float, str]]


@dataclass
class Outcome:
    """What one pass produced: rendered bytes, run counts, and broken invariants."""

    report: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def _no_extras(tracer: Tracer, walls: list[float]) -> Metrics:
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # the layer set it declares (see layers.DECLARED)
    run_pass: Callable[[int, Tracer, str], Outcome]
    # The per-home worker, where the stream driver looks it up (timed as "bench.home").
    home_target: Optional[str] = None
    # End-to-end metrics of this workload only, from the tracer's records and the pass walls.
    extras: Callable[[Tracer, list[float]], Metrics] = _no_extras


# ----------------------------------------------------------------- studies


def _study_pass(fidelity: str) -> Callable[[int, Tracer, str], Outcome]:
    def run(seed: int, tracer: Tracer, scratch: str) -> Outcome:
        with tracer.region("bench.study"):
            study = testbed_study.run_full_study(seed=seed, fidelity=fidelity)
        with tracer.region("bench.render"):
            analysis = StudyAnalysis(study)
            sections = []
            for name in STUDY_SECTIONS:
                render = getattr(reports, f"render_{name}")
                sections.append(render() if name == "table2" else render(analysis))
        return Outcome(
            report="".join(text + "\n" for text in sections),
            attempted=len(study.experiments),
            failed=0,
            problems=_study_problems(study, analysis, fidelity),
        )

    return run


def _study_problems(study, analysis: StudyAnalysis, fidelity: str) -> list[str]:
    problems = []
    devices = len(study.testbed.devices)
    for name, result in study.experiments.items():
        if len(result.functionality) != devices:
            problems.append(f"{name}: functionality covers {len(result.functionality)}/{devices} devices")
        if fidelity == "packet" and result.flow_records:
            problems.append(f"{name}: packet fidelity emitted {len(result.flow_records)} flow records")
    if fidelity == "flow" and not any(result.flow_records for result in study.experiments.values()):
        problems.append("flow fidelity emitted no flow records")
    for name, index in analysis.indexes.items():
        if index.decode_errors:
            problems.append(f"{name}: {index.decode_errors} capture decode errors")
    if study.port_scan is None or not study.active_dns:
        problems.append("active experiments did not run")
    return problems


# ------------------------------------------------------------------ fleet


def _sim_seed(seed: int, index: int) -> int:
    """The simulator seed of population home ``index`` in a run at ``seed``."""
    return random.Random(f"{seed}/sim/{index}").getrandbits(32)


def _fleet_unit(index: int, *, seed: int) -> tuple:
    # What run_fleet_stream's unit does, with the home drawn from the fixed population.
    scenario = fleet_scenario.get_scenario(FLEET_SCENARIO)
    home = fleet_scenario.generate_home(index, POPULATION_SEED, scenario, fidelity="flow")
    return (dataclasses.replace(home, sim_seed=_sim_seed(seed, index)),)


def _fleet_pass(seed: int, tracer: Tracer, scratch: str) -> Outcome:
    aggregate = fleet_shard.run_sharded(
        FLEET_HOMES,
        lambda index: _fleet_unit(index, seed=seed),
        fold=fleet_stream.FleetFold(),
        worker=fleet_stream.simulate_home,
        shards=1,
    )
    text = reports.render_fleet_summary(aggregate)
    problems = []
    if aggregate.total_homes != FLEET_HOMES or aggregate.completed_homes != FLEET_HOMES:
        problems.append(f"{aggregate.completed_homes}/{aggregate.total_homes} of {FLEET_HOMES} homes completed")
    return Outcome(text, aggregate.total_homes, len(aggregate.failed_homes), problems)


def _fleet_extras(tracer: Tracer, walls: list[float]) -> Metrics:
    # Every home of every pass; p90 only once there are 100 of them (stats.P90_MIN_SAMPLES).
    homes = tracer.durations("bench.home")
    extras = {"home_p50_s": (statistics.median(homes), "s")}
    tail = p90(homes)
    if tail is not None:
        extras["home_p90_s"] = (tail, "s")
    return extras


# ----------------------------------------------------------------- faults


def _faults_unit(index: int, *, seed: int) -> tuple:
    # What run_faults_stream's unit does, with the home drawn from the fixed population.
    scenario = fleet_scenario.RolloutScenario(name="faults", config_mix=((FAULT_CONFIGS[0], 1.0),))
    home = fleet_scenario.generate_home(index, POPULATION_SEED, scenario)
    return tuple(
        faults_population.FaultSpec(
            home_id=home.home_id,
            sim_seed=_sim_seed(seed, index),
            config_name=config_name,
            device_names=home.device_names,
            fault_names=FAULT_NAMES,
            fidelity="flow",
        )
        for config_name in FAULT_CONFIGS
    )


def _faults_pass(seed: int, tracer: Tracer, scratch: str) -> Outcome:
    root = tempfile.mkdtemp(prefix="faults-", dir=scratch)
    settings = CacheSettings(directory=os.path.join(root, "cache"))
    studies = STUDIES_PER_FAULT_HOME * FAULT_HOMES
    outcome = Outcome(report="", attempted=0, failed=0)

    def sweep(phase: str, journal: str, expect: dict) -> str:
        reset_process_caches()
        with tracer.region(phase):
            aggregate = fleet_shard.run_sharded(
                FAULT_HOMES,
                lambda index: _faults_unit(index, seed=seed),
                fold=faults_population.FaultFold(),
                worker=faults_population.run_home_faults,
                shards=1,
                journal_dir=os.path.join(root, journal),
                journal_token=spec_token("bench-faults", FAULT_HOMES, seed, FAULT_CONFIGS, FAULT_NAMES),
                checkpoint_every=FAULT_CHECKPOINT_EVERY,
                cache=settings,
            )
            text = reports.render_faults(aggregate)
        counters = process_counters()
        tracer.count("cache.store.hits", counters["study_cache_hits"])
        tracer.count("cache.store.disk_hits", counters["study_cache_disk_hits"])
        tracer.count("cache.store.misses", counters["study_cache_misses"])
        seen = {key: counters[key] for key in expect}
        if seen != expect:
            outcome.problems.append(f"{phase}: cache counters {seen}, expected {expect}")
        outcome.attempted += aggregate.total_runs
        outcome.failed += len(aggregate.failed)
        return text

    try:
        cold = sweep("bench.cold", "journal-cold", {"study_cache_misses": studies, "study_cache_hits": 0})
        for index in range(WARM_PASSES):
            warm = sweep(
                "bench.warm",
                f"journal-warm-{index}",
                {"study_cache_misses": 0, "study_cache_disk_hits": studies},
            )
            if warm != cold:
                outcome.problems.append(f"warm pass {index} rendered other bytes than the cold pass")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    outcome.report = cold
    return outcome


def _faults_extras(tracer: Tracer, walls: list[float]) -> Metrics:
    return {
        "cold_s": (statistics.median(tracer.durations("bench.cold")), "s"),
        "warm_s": (statistics.median(tracer.durations("bench.warm")), "s"),
    }


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("study-flow", "study", _study_pass("flow")),
        Workload("study-packet", "study", _study_pass("packet")),
        Workload("fleet-flow", "fleet", _fleet_pass, "repro.fleet.stream:simulate_home", _fleet_extras),
        Workload(
            "faults-cached", "faults", _faults_pass, "repro.faults.population:run_home_faults", _faults_extras
        ),
    )
}
