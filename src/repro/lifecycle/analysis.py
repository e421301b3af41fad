"""Per-epoch analysis: the picklable worker behind the lifecycle fleet.

``run_home_epoch`` rebuilds one home for one epoch inside a worker process:
stock profiles come from the inventory, the spec's cumulative firmware
history is applied on top (``repro.lifecycle.firmware``), RFC 8981
rotate-out is switched on for privacy-addressed devices when the timeline
asks for it, and the epoch's study runs through the standard
:func:`~repro.testbed.study.run_home_study` path — composing with
``repro.faults`` schedules in transition epochs and an optional
``repro.exposure`` WAN scan afterwards. The return value is a flat,
picklable :class:`EpochSummary`.
"""

from __future__ import annotations

import dataclasses
from contextlib import closing
from dataclasses import dataclass
from typing import Optional

from repro.cache import cached_artifact, study_fingerprint
from repro.devices.profile import DeviceProfile
from repro.faults.schedule import get_fault
from repro.lifecycle.firmware import apply_revisions
from repro.lifecycle.timeline import EpochSpec
from repro.net.ip6 import AddressScope
from repro.testbed.study import profiles_by_name, resolve_home_inputs, run_home_study


def v6_ready(profile: DeviceProfile) -> bool:
    """Would this (possibly firmware-upgraded) device survive IPv6-only?

    The capability-level predicate behind the readiness trajectory: the
    v6-only phase must speak DNS over IPv6 and form a global address, and
    every essential cloud destination must carry an AAAA record. This is
    the analytic mirror of what the functionality test measures end-to-end.
    """
    return (
        profile.v6only.dns_v6
        and profile.v6only.gua
        and profile.portfolio.essential_aaaa
        and profile.portfolio.essential_a_only == 0
    )


@dataclass(frozen=True)
class EpochExposure:
    """WAN-scan outcome for one epoch (when the timeline enables scans)."""

    firewall: str
    discoverable: int
    reachable: int
    probes_sent: int
    wan_dropped: int
    retired_probed: int       # rotated-out addresses replayed from a hitlist
    retired_responsive: int   # must stay 0: retired addresses are gone


@dataclass(frozen=True)
class EpochSummary:
    """One (home, epoch) study, flattened for aggregation.

    Everything here follows from the study's fingerprint; the home, epoch,
    transition flag, firmware history and fault name that label it come
    from its :class:`EpochSpec`.
    """

    config_name: str
    devices: tuple[str, ...]
    functional: tuple[str, ...]
    bricked: tuple[str, ...]
    ready: tuple[str, ...]               # v6-ready under the *current* firmware
    eui64_devices: tuple[str, ...]
    gua_addresses: int
    retired_addresses: int
    exposure: Optional[EpochExposure] = None

    @property
    def size(self) -> int:
        return len(self.devices)


def epoch_profiles(spec: EpochSpec) -> list[DeviceProfile]:
    """The home's profiles for this epoch: stock + firmware + rotation."""
    firmware = dict(spec.firmware)
    profiles = []
    for profile in profiles_by_name(spec.device_names):
        applied = firmware.get(profile.name, ())
        if applied:
            profile = apply_revisions(profile, applied)
        if (
            spec.rotation
            and (profile.gua_iid_mode or profile.iid_mode) == "temporary"
            and not profile.gua_rotate_out
        ):
            profile = dataclasses.replace(profile, gua_rotate_out=True)
        profiles.append(profile)
    return profiles


def run_home_epoch(spec: EpochSpec) -> EpochSummary:
    """Simulate one epoch of one home (module-level: picklable for pools).

    Consults the ambient study cache. The fingerprint hashes the epoch's
    *derived* profile contents (stock + firmware + rotation) with the
    epoch's own simulator seed, which ``build_timeline`` draws per
    ``(home, epoch)``: within one run no two epochs share a fingerprint, and
    a hit comes from re-running the same epoch, for example under another
    ``--wave`` that leaves it unchanged. The stored :class:`EpochSummary`
    carries no label of its spec.
    """
    schedule = get_fault(spec.fault_name) if spec.fault_name != "none" else None
    config, profiles = resolve_home_inputs(
        spec.config_name, spec.device_names, profiles=epoch_profiles(spec), fidelity=spec.fidelity
    )
    fingerprint = study_fingerprint(
        sim_seed=spec.sim_seed,
        config=config,
        profiles=profiles,
        fault_schedule=schedule,
        extra=("exposure", spec.exposure),
    )
    return cached_artifact(fingerprint, "lifecycle-epoch", lambda: _simulate_epoch(spec, config, profiles, schedule))


def _simulate_epoch(spec: EpochSpec, config, profiles, schedule) -> EpochSummary:
    """The uncached body: one epoch study plus its optional WAN scan."""
    study = run_home_study(spec.sim_seed, config, profiles, fault_schedule=schedule)
    with closing(study.testbed):
        result = study.experiment(config.name)

        functional = tuple(sorted(name for name, ok in result.functionality.items() if ok))
        bricked = tuple(sorted(name for name, ok in result.functionality.items() if not ok))
        ready = tuple(sorted(profile.name for profile in profiles if v6_ready(profile)))

        eui64 = []
        gua_addresses = 0
        retired = 0
        for device in study.testbed.devices:
            records = device.stack.addrs.assigned(AddressScope.GUA)
            gua_addresses += len(records)
            retired += len(device.stack.addrs.retired)
            if any(record.iid_kind == "eui64" for record in records):
                eui64.append(device.name)

        exposure = None
        if spec.exposure and config.ipv6:
            exposure = _scan_epoch(study.testbed)

        return EpochSummary(
            config_name=spec.config_name,
            devices=spec.device_names,
            functional=functional,
            bricked=bricked,
            ready=ready,
            eui64_devices=tuple(sorted(eui64)),
            gua_addresses=gua_addresses,
            retired_addresses=retired,
            exposure=exposure,
        )


def _scan_epoch(testbed) -> EpochExposure:
    """WAN-scan the settled home, replaying rotated-out addresses as a
    stale hitlist — they must never answer (RFC 8981 drift)."""
    from repro.exposure.wanscan import WanScanner

    extra = {
        device.name: tuple(device.stack.addrs.retired)
        for device in testbed.devices
        if device.stack.addrs.retired
    }
    scanner = WanScanner(testbed, extra_targets=extra)
    scan = scanner.run()
    retired_responsive = sum(
        1
        for name, targets in extra.items()
        if not scan.devices[name].discovered and scan.devices[name].responsive
    )
    return EpochExposure(
        firewall=scan.firewall,
        discoverable=len(scan.discoverable_devices),
        reachable=len(scan.reachable_devices),
        probes_sent=scan.probes_sent,
        wan_dropped=scan.wan_dropped,
        retired_probed=scan.extra_probed,
        retired_responsive=retired_responsive,
    )
