"""Per-home analytics summaries.

A :class:`HomeSummary` is the compact, picklable record a worker process
sends back for one simulated home: what the home contained, what bricked
under its assigned configuration, how much dual-stack traffic rode IPv6, and
which devices exposed MAC-derived (EUI-64) global addresses. The fleet
aggregator consumes only these summaries — never raw captures — so the
per-home payload stays small no matter how large the fleet grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fleet.scenario import HomeSpec
from repro.testbed.study import Study, resolve_config


@dataclass(frozen=True)
class HomeSummary:
    """Population-relevant facts about one simulated home.

    Everything here follows from the study's fingerprint; the home's id
    labels the row through its spec.
    """

    config_name: str
    sim_seed: int
    devices: tuple[str, ...]
    functional: tuple[str, ...]          # devices whose primary function worked
    bricked: tuple[str, ...]             # devices that did not
    eui64_devices: tuple[str, ...]       # devices that formed an EUI-64 GUA
    data_v6_devices: tuple[str, ...]     # devices that moved data over IPv6
    v6_share: Optional[float]            # IPv6 fraction of Internet bytes
                                         # (dual-stack homes only, else None)

    @property
    def size(self) -> int:
        return len(self.devices)

    @property
    def has_bricked(self) -> bool:
        return bool(self.bricked)

    @property
    def has_eui64(self) -> bool:
        return bool(self.eui64_devices)


def summarize_home(study: Study, spec: HomeSpec) -> HomeSummary:
    """Reduce one home's single-config study to its population summary."""
    from repro.core.analysis import StudyAnalysis
    from repro.core.traffic import internet_volumes

    config = resolve_config(spec.config_name)
    analysis = StudyAnalysis(study)
    flags = analysis.flags_by_experiment[config.name]

    functional = tuple(sorted(d for d in analysis.devices if flags[d].functional))
    bricked = tuple(sorted(d for d in analysis.devices if not flags[d].functional))
    eui64 = tuple(sorted(d for d in analysis.devices if flags[d].gua_eui64))
    data_v6 = tuple(sorted(d for d in analysis.devices if flags[d].data_v6))

    v6_share: Optional[float] = None
    if config.dual_stack:
        volumes = internet_volumes(analysis, experiments=(config.name,))
        total = sum(summary.total for summary in volumes.values())
        v6_bytes = sum(summary.v6_bytes for summary in volumes.values())
        v6_share = v6_bytes / total if total else 0.0

    return HomeSummary(
        config_name=config.name,
        sim_seed=spec.sim_seed,
        devices=spec.device_names,
        functional=functional,
        bricked=bricked,
        eui64_devices=eui64,
        data_v6_devices=data_v6,
        v6_share=v6_share,
    )
