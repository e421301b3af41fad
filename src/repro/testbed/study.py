"""The full study driver: six connectivity experiments + active experiments.

``run_full_study`` reproduces the paper's two-week measurement campaign on
the simulated testbed and returns a :class:`Study` holding every capture and
out-of-band observation. The :mod:`repro.core` pipeline consumes a Study to
regenerate the paper's tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.net.pcap import PcapWriter
from repro.stack.config import ALL_CONFIGS, DUAL_STACK, NetworkConfig, with_fidelity
from repro.testbed.activedns import AaaaProbe, active_dns_queries
from repro.testbed.experiments import ExperimentResult, run_connectivity_experiment
from repro.testbed.lab import Testbed
from repro.testbed.portscan import PortScanner, ScanReport


@dataclass
class Study:
    """Everything a study run produced."""

    testbed: Testbed
    experiments: dict[str, ExperimentResult] = field(default_factory=dict)
    active_dns: dict[str, AaaaProbe] = field(default_factory=dict)
    port_scan: Optional[ScanReport] = None
    _index_cache: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def mac_table(self):
        return self.testbed.mac_table()

    def experiment(self, name: str) -> ExperimentResult:
        return self.experiments[name]

    def shared_indexes(self) -> dict:
        """Per-experiment :class:`~repro.core.capture.CaptureIndex` objects,
        built once per Study and shared by every consumer (``observed_domains``,
        :class:`~repro.core.analysis.StudyAnalysis`). Captures are immutable
        after an experiment completes, so the indexes never go stale."""
        from repro.core.capture import CaptureIndex

        if self._index_cache is None:
            self._index_cache = {}
        cache = self._index_cache
        if len(cache) != len(self.experiments):
            # Index any experiments appended since the cache was last touched
            # (the study driver consumes indexes before the active phases run).
            mac_table = self.mac_table
            for name, result in self.experiments.items():
                if name not in cache:
                    cache[name] = CaptureIndex(
                        result.records, mac_table, flow_records=getattr(result, "flow_records", ())
                    )
        return cache

    def export_pcaps(self, directory) -> list[Path]:
        """Write each experiment's capture as a standard pcap file."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, result in self.experiments.items():
            path = directory / f"{name}.pcap"
            with open(path, "wb") as stream:
                PcapWriter(stream).write_all(result.records)
            paths.append(path)
        return paths

    def total_frames(self) -> int:
        return sum(len(result.records) for result in self.experiments.values())


def observed_domains(study: Study) -> set[str]:
    """Domains seen in DNS queries or TLS SNI across all experiments —
    the input set for the active AAAA probe (§4.3).

    Reads the study's shared per-experiment indexes, so the captures are
    parsed once for the whole pipeline rather than once per consumer."""
    names: set[str] = set()
    for index in study.shared_indexes().values():
        names.update(q.name for q in index.dns_queries)
        names.update(flow.sni for flow in index.tcp_flows if flow.sni)
    return {n for n in names if not n.endswith(".lan") and not n.endswith(".local")}


def run_full_study(
    seed: int = 42,
    *,
    configs: Optional[list[NetworkConfig]] = None,
    checkins: int = 2,
    with_port_scan: bool = True,
    with_active_dns: bool = True,
    testbed: Optional[Testbed] = None,
    fidelity: Optional[str] = None,
) -> Study:
    """Run the complete measurement campaign.

    ``fidelity``, when given, overrides every experiment's simulation
    fidelity (``packet`` or ``flow``, see DESIGN.md §13); the analysis
    output is byte-identical in both modes.
    """
    testbed = testbed or Testbed(seed=seed)
    study = Study(testbed=testbed)
    for config in configs or ALL_CONFIGS:
        if fidelity is not None:
            config = with_fidelity(config, fidelity)
        study.experiments[config.name] = run_connectivity_experiment(testbed, config, checkins=checkins)

    if with_port_scan:
        # The scans ran against the dual-stack deployment (latest addresses
        # gathered from the router's neighbor table).
        testbed.router.configure(DUAL_STACK)
        for device in testbed.everyone:
            device.prepare(DUAL_STACK)
        testbed.sim.run(60.0)
        study.port_scan = PortScanner(testbed).run()

    if with_active_dns:
        study.active_dns = active_dns_queries(testbed.internet, observed_domains(study))
    return study


# --------------------------------------------------------------- fleet entry


def resolve_config(config: Union[NetworkConfig, str]) -> NetworkConfig:
    """Look a :class:`NetworkConfig` up by name (identity for configs)."""
    if isinstance(config, NetworkConfig):
        return config
    for candidate in ALL_CONFIGS:
        if candidate.name == config:
            return candidate
    raise KeyError(f"unknown network config {config!r}")


def profiles_by_name(device_names: Sequence[str]):
    """Resolve inventory device names to profiles, rejecting unknown names."""
    from repro.devices import build_inventory

    by_name = {profile.name: profile for profile in build_inventory()}
    missing = [name for name in device_names if name not in by_name]
    if missing:
        raise KeyError(f"unknown inventory devices: {missing}")
    return [by_name[name] for name in device_names]


def resolve_home_inputs(
    config: Union[NetworkConfig, str],
    device_names: Sequence[str],
    *,
    profiles=None,
    fidelity: Optional[str] = None,
):
    """Resolve a home spec's plain values into the simulator's real inputs.

    Returns ``(config, profiles)`` with the fidelity folded into the config
    and inventory names replaced by concrete profiles. This is the exact
    closure a home study is a pure function of (plus seed, checkins, and
    fault schedule), which is why :mod:`repro.cache` fingerprints the
    return value rather than the spec's spelling of it.
    """
    config = resolve_config(config)
    if fidelity is not None:
        config = with_fidelity(config, fidelity)
    if profiles is None:
        profiles = profiles_by_name(device_names)
    return config, profiles


def run_home_study(
    seed: int,
    config: Union[NetworkConfig, str],
    device_names: Sequence[str],
    *,
    checkins: int = 2,
    fault_schedule=None,
    profiles=None,
    progress: Optional[Callable[[float, int], None]] = None,
    progress_interval: float = 100.0,
    fidelity: Optional[str] = None,
) -> Study:
    """Run one synthetic *home*: a device subset under a single network config.

    This is the per-home entry point every population worker (e.g.
    :func:`repro.fleet.runner.simulate_home`) calls inside its shard
    process — it takes only plain values (seed, config name, device names),
    rebuilds the profiles from the inventory inside the worker, and returns a single-experiment
    :class:`Study`. ``fault_schedule``, if given, is a
    :class:`~repro.faults.schedule.FaultSchedule` injected into the home's
    link and router for the whole run (the injector's counters are exposed
    as ``study.testbed.faults``). ``profiles``, if given, overrides the
    inventory lookup with pre-built (possibly transformed) profiles — the
    lifecycle subsystem passes firmware-upgraded variants this way; callers
    must keep it consistent with ``device_names``. ``progress``, if given,
    is polled on a simulated timer with ``(virtual_time,
    simulator.pending)``; the timer callbacks touch no device state, so
    enabling progress does not perturb the simulation.
    """
    config, profiles = resolve_home_inputs(
        config, device_names, profiles=profiles, fidelity=fidelity
    )
    testbed = Testbed(seed=seed, profiles=profiles, include_controls=False)

    if fault_schedule is not None:
        # Imported lazily: repro.faults.analysis consumes this module, and
        # the injector is only needed when a schedule is actually supplied.
        from repro.faults.inject import FaultInjector

        testbed.faults = FaultInjector.attach(testbed, fault_schedule)

    if progress is not None:

        def tick() -> None:
            progress(testbed.sim.now, testbed.sim.pending)
            testbed.sim.schedule(progress_interval, tick)

        testbed.sim.schedule(progress_interval, tick)

    study = Study(testbed=testbed)
    study.experiments[config.name] = run_connectivity_experiment(testbed, config, checkins=checkins)
    return study
