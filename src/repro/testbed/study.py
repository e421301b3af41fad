"""The full study driver: six connectivity experiments + active experiments.

``run_full_study`` reproduces the paper's two-week measurement campaign on
the simulated testbed and returns a :class:`Study` holding every capture and
out-of-band observation. The :mod:`repro.core` pipeline consumes a Study to
regenerate the paper's tables and figures.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.devices.inventory import inventory_by_name
from repro.devices.profile import DeviceProfile
from repro.net.pcap import PcapWriter
from repro.stack.config import ALL_CONFIGS, DUAL_STACK, NetworkConfig, with_fidelity
from repro.testbed.activedns import AaaaProbe, active_dns_queries
from repro.testbed.experiments import ExperimentResult, run_connectivity_experiment
from repro.testbed.lab import Testbed
from repro.testbed.portscan import PortScanner, ScanReport

# The generation-2 threshold while a study runs: more generation-1
# collections than any study makes, so no full collection starts.
DEFERRED_FULL_COLLECTION = 1 << 30


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
                    cache[name] = CaptureIndex(result.records, mac_table, flow_records=result.flow_records)
        return cache

    def export_pcaps(self, directory) -> list[Path]:
        """Write each experiment's capture as a standard pcap file.

        Raises ``ValueError``, before writing anything, when an experiment
        holds flow records: the exchanges that flow fidelity elided are not
        frames, so its captures alone would analyse to other tables.
        """
        for name, result in self.experiments.items():
            if result.flow_records:
                raise ValueError(
                    f"experiment {name!r} holds {len(result.flow_records)} flow records that a pcap "
                    "cannot carry; run the study in packet fidelity to export it"
                )
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
    with_port_scan: bool = True,
    with_active_dns: bool = True,
    testbed: Optional[Testbed] = None,
    fidelity: Optional[str] = None,
) -> Study:
    """Run the complete measurement campaign.

    ``fidelity``, when given, overrides every experiment's simulation
    fidelity (``packet`` or ``flow``, see DESIGN.md §13); the analysis
    output is byte-identical in both modes.

    The study keeps every frame it captures until it returns and makes no
    cyclic garbage, so a full (generation-2) collection while it runs would
    walk all of them and free nothing. One full collection on entry frees
    what earlier work left (a finished testbed that was never closed, like
    this study's own, is a cycle); then only the young generations collect
    until the study returns, and the caller's thresholds come back even
    when it raises (DESIGN.md §10). The study's testbed stays open, because
    the caller keeps the study.
    """
    gc.collect()
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], DEFERRED_FULL_COLLECTION)
    try:
        testbed = testbed or Testbed(seed=seed)
        study = Study(testbed=testbed)
        for config in configs or ALL_CONFIGS:
            if fidelity is not None:
                config = with_fidelity(config, fidelity)
            study.experiments[config.name] = run_connectivity_experiment(testbed, config)

        if with_port_scan:
            # The scans ran against the dual-stack deployment (latest addresses
            # gathered from the router's neighbor table).
            testbed.configure(DUAL_STACK)
            testbed.sim.run(60.0)
            study.port_scan = PortScanner(testbed).run()

        if with_active_dns:
            study.active_dns = active_dns_queries(testbed.internet, observed_domains(study))
        return study
    finally:
        gc.set_threshold(*thresholds)


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
    """Look inventory device names up in the catalog, rejecting unknown names."""
    by_name = inventory_by_name()
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
    and inventory names replaced by the catalog's shared, frozen profiles
    (or by ``profiles``, when the caller derived its own, such as a
    firmware-upgraded lifecycle epoch). This is the exact closure a home
    study is a pure function of (plus seed and fault schedule),
    which is why :mod:`repro.cache` fingerprints the return value rather
    than the spec's spelling of it, and what :func:`run_home_study` takes.
    """
    config = resolve_config(config)
    if fidelity is not None:
        config = with_fidelity(config, fidelity)
    if profiles is None:
        profiles = profiles_by_name(device_names)
    return config, profiles


def run_home_study(
    seed: int,
    config: NetworkConfig,
    profiles: Sequence[DeviceProfile],
    *,
    fault_schedule=None,
) -> Study:
    """Run one synthetic *home*: a device subset under a single network config.

    This is the per-home entry point every population worker (e.g.
    :func:`repro.fleet.runner.simulate_home`) calls inside its shard
    process, on the ``config`` and ``profiles`` that
    :func:`resolve_home_inputs` resolved (the same values the worker
    fingerprints), and returns a single-experiment :class:`Study`.
    ``fault_schedule``, if given, is a
    :class:`~repro.faults.schedule.FaultSchedule` injected into the home's
    link and router for the whole run (the injector's counters are exposed
    as ``study.testbed.faults``).

    The caller closes ``study.testbed`` once it has read what it needs
    (:meth:`Testbed.close`); a run that raises closes it here.
    """
    testbed = Testbed(seed=seed, profiles=profiles, include_controls=False)

    if fault_schedule is not None:
        # Imported lazily: repro.faults.analysis consumes this module, and
        # the injector is only needed when a schedule is actually supplied.
        from repro.faults.inject import FaultInjector

        testbed.faults = FaultInjector.attach(testbed, fault_schedule)

    study = Study(testbed=testbed)
    try:
        study.experiments[config.name] = run_connectivity_experiment(testbed, config)
    except BaseException:  # an expired home budget too: no caller holds the testbed yet
        testbed.close()
        raise
    return study
