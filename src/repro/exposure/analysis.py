"""Per-home exposure analysis: the picklable fleet worker.

``run_home_exposure`` is to the exposure subsystem what
``repro.fleet.runner.simulate_home`` is to the rollout fleet: it takes one
plain-value spec, rebuilds the home inside the worker process, lets the
devices autoconfigure, installs UPnP/PCP-style pinholes when the router runs
in ``pinhole`` mode, runs the WAN attacker, and returns a flat, picklable
:class:`HomeExposure` summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache import cached_artifact, study_fingerprint
from repro.devices.profile import Category, DeviceProfile
from repro.exposure.wanscan import WanScanner, WanScanResult
from repro.stack.config import with_fidelity, with_firewall
from repro.testbed.lab import Testbed
from repro.testbed.study import profiles_by_name, resolve_config

if TYPE_CHECKING:
    from repro.exposure.population import ExposureSpec

# Categories that ask the router for inbound port mappings (remote viewing /
# remote administration); a modelling assumption documented in DESIGN.md:
# cameras, vendor gateways and TVs UPnP-map their LAN-open TCP services.
UPNP_CATEGORIES = (Category.CAMERA, Category.GATEWAY, Category.TV)

# How a device's GUA mix collapses to one headline address kind: an EUI-64
# address dominates (synthesizable even when rotation later added privacy
# addresses), then DHCPv6 leases (low-IID hitlist), then RFC 7217 stable,
# then pure RFC 8981 privacy addressing.
_KIND_PRIORITY = ("eui64", "lease", "stable", "temporary")
_KIND_LABELS = {"temporary": "privacy"}


def effective_pinholes(profile: DeviceProfile) -> tuple[tuple[int, int], ...]:
    """The ``(proto, port)`` mappings a device requests from a pinhole router.

    UPnP-prone categories map their LAN-open TCP services; everything else
    requests nothing.
    """
    if profile.category in UPNP_CATEGORIES:
        return tuple((6, port) for port in profile.open_tcp_v6)
    return ()


def headline_addr_kind(addr_kinds: tuple[str, ...]) -> str:
    """Collapse a device's GUA kind mix to its headline kind (see above).

    Shared with :mod:`repro.adversary.analysis`, which stratifies compromise
    outcomes on the same labels exposure uses for discovery."""
    for kind in _KIND_PRIORITY:
        if kind in addr_kinds:
            return _KIND_LABELS.get(kind, kind)
    return "none"


_headline_kind = headline_addr_kind


@dataclass(frozen=True)
class DeviceExposure:
    """Flat per-device outcome (picklable across the worker pool)."""

    device: str
    addr_kind: str                      # "eui64" | "lease" | "stable" | "privacy" | "none"
    gua_count: int
    discoverable: bool
    responsive: bool
    reachable: bool
    open_tcp: tuple[int, ...]
    open_udp: tuple[int, ...]


@dataclass(frozen=True)
class HomeExposure:
    """One home's WAN attack surface under one firewall mode."""

    config_name: str
    firewall: str
    candidate_count: int
    probes_sent: int
    wan_dropped: int
    decoy_hits: int
    devices: tuple[DeviceExposure, ...]

    @property
    def discoverable_devices(self) -> list[str]:
        return [d.device for d in self.devices if d.discoverable]

    @property
    def any_reachable(self) -> bool:
        return any(d.reachable for d in self.devices)


def summarize_exposure(scan: WanScanResult, spec: "ExposureSpec") -> HomeExposure:
    """Flatten a :class:`WanScanResult` into the picklable summary."""
    devices = tuple(
        DeviceExposure(
            device=name,
            addr_kind=_headline_kind(report.addr_kinds),
            gua_count=report.gua_count,
            discoverable=report.discoverable,
            responsive=report.responsive,
            reachable=report.reachable,
            open_tcp=tuple(sorted(report.open_tcp)),
            open_udp=tuple(sorted(report.open_udp)),
        )
        for name, report in sorted(scan.devices.items())
    )
    return HomeExposure(
        config_name=spec.config_name,
        firewall=spec.firewall,
        candidate_count=scan.candidate_count,
        probes_sent=scan.probes_sent,
        wan_dropped=scan.wan_dropped,
        decoy_hits=scan.decoy_hits,
        devices=devices,
    )


def run_home_exposure(spec: "ExposureSpec") -> HomeExposure:
    """Build the home, settle addressing, install pinholes, run the attacker.

    Raises on IPv4-only configs: with no routed IPv6 there is no WAN-v6
    attack surface to measure (NAT44 is the paper's baseline, not a finding).

    Consults the ambient study cache: the firewall mode rides inside the
    resolved config, so each (home, firewall) cell keys its own artifact,
    a :class:`HomeExposure` that carries no ``home_id``.
    """
    config = with_firewall(resolve_config(spec.config_name), spec.firewall)
    config = with_fidelity(config, spec.fidelity)
    if not config.ipv6:
        raise ValueError(f"config {config.name!r} has no IPv6; nothing to expose")

    profiles = profiles_by_name(spec.device_names)
    fingerprint = study_fingerprint(
        sim_seed=spec.sim_seed,
        config=config,
        profiles=profiles,
        extra=("settle", spec.settle),
    )

    def compute() -> HomeExposure:
        return summarize_exposure(_scan_home(spec, config, profiles), spec)

    return cached_artifact(fingerprint, "exposure-scan", compute)


def _scan_home(spec: "ExposureSpec", config, profiles) -> WanScanResult:
    """The uncached body: build, settle, pinhole, scan."""
    testbed = Testbed(seed=spec.sim_seed, profiles=profiles, include_controls=False)
    # No capture runs here, so the fast path's records are never read (the
    # scanner probes from the WAN).
    testbed.configure(config)
    testbed.sim.run(spec.settle)

    if spec.firewall == "pinhole":
        for device in testbed.devices:
            for proto, port in effective_pinholes(device.profile):
                testbed.router.add_pinhole(device.mac, proto, port)

    return WanScanner(testbed).run()
