"""Per-home WAN measurement: the picklable worker of both WAN populations.

``run_home_exposure`` is to the exposure and adversary subsystems what
``repro.fleet.runner.simulate_home`` is to the rollout fleet: it takes one
plain-value :class:`ExposureSpec`, rebuilds the home inside the worker
process, lets the devices autoconfigure for :data:`SETTLE` seconds
(optionally under an injected fault schedule: an RA outage during settle
leaves SLAAC addresses unformed), installs UPnP/PCP-style pinholes when the
router runs in ``pinhole`` mode, runs the WAN attacker, and returns a flat,
picklable :class:`HomeExposure` summary. Two spec fields tell the
populations apart; the adversary sets both, exposure neither:

- ``leak`` schedules one cloud check-in per device at :data:`CHECKIN_AT`,
  and the scanner then also probes every *leaked* address (a GUA the device
  sourced traffic from, the raw material of hitlist replay) through its
  ``extra_targets`` hook, so privacy addresses that defeat synthesis are
  still tested against the firewall;
- ``fault_name`` attaches a :mod:`repro.faults` schedule for the whole run.

Each device carries its per-strategy entry counts, and a device is an
**entry point** when at least one of its addresses answers a TCP SYN on an
open port from the WAN (ICMPv6 echo alone is information, not code
execution). The worm's targeting and spread are pure functions of these
summaries, so the epidemic layer never re-runs packets.
"""

from __future__ import annotations

import ipaddress
from contextlib import closing
from dataclasses import dataclass

from repro.cache import cached_artifact, study_fingerprint
from repro.devices.profile import Category, DeviceProfile
from repro.exposure.wanscan import WanScanner
from repro.faults.inject import FaultInjector
from repro.faults.schedule import NO_FAULTS, get_fault
from repro.net.ip6 import AddressScope
from repro.stack.config import with_fidelity, with_firewall
from repro.testbed.lab import Testbed
from repro.testbed.study import profiles_by_name, resolve_config

SETTLE = 150.0  # sim-seconds of autoconfiguration before the scan

# When the single pre-scan cloud check-in fires (the connectivity-experiment
# timeline's first cycle): addresses only reach the hitlist by *leaking*, and
# they only leak when devices source real traffic from them.
CHECKIN_AT = 120.0

# The sweep strategies; "hitlist" replays leaked addresses instead of
# synthesizing candidates. Defined next to the worker that counts each
# device's entries per strategy; the worm's target space reads the same names.
STRATEGIES = ("eui64-sweep", "low-iid", "hitlist")

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


@dataclass(frozen=True)
class ExposureSpec:
    """One (home, firewall mode) cell: a seeded, picklable simulator input."""

    home_id: int
    sim_seed: int
    config_name: str
    firewall: str
    device_names: tuple[str, ...]
    fault_name: str = NO_FAULTS.name
    leak: bool = False
    fidelity: str = "packet"


def effective_pinholes(profile: DeviceProfile) -> tuple[tuple[int, int], ...]:
    """The ``(proto, port)`` mappings a device requests from a pinhole router.

    UPnP-prone categories map their LAN-open TCP services; everything else
    requests nothing.
    """
    if profile.category in UPNP_CATEGORIES:
        return tuple((6, port) for port in profile.open_tcp_v6)
    return ()


def headline_addr_kind(addr_kinds: tuple[str, ...]) -> str:
    """Collapse a device's GUA kind mix to its headline kind (see above)."""
    for kind in _KIND_PRIORITY:
        if kind in addr_kinds:
            return _KIND_LABELS.get(kind, kind)
    return "none"


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
    eui64_entries: int                  # addresses an OUI x suffix sweep finds
    low_iid_entries: int                # addresses in the low-IID hitlist
    hitlist_entries: int                # leaked (used) GUAs a replay list holds

    @property
    def exploitable(self) -> bool:
        """At least one WAN-reachable open TCP port."""
        return bool(self.open_tcp)

    def entries(self, strategy: str) -> int:
        """Addresses of this device the given strategy can aim a probe at."""
        if strategy == "eui64-sweep":
            return self.eui64_entries
        if strategy == "low-iid":
            return self.low_iid_entries
        if strategy == "hitlist":
            return self.hitlist_entries
        raise ValueError(f"unknown strategy {strategy!r} (known: {', '.join(STRATEGIES)})")


@dataclass(frozen=True)
class HomeExposure:
    """One home's WAN attack surface under one firewall mode.

    Everything here follows from the study's fingerprint; the home id that
    labels it comes from its :class:`ExposureSpec`.
    """

    config_name: str
    firewall: str
    immune: bool                        # no routed IPv6: unreachable from WAN
    eui64_space: int                    # sweep candidates per /64
    low_iid_space: int
    probes_sent: int
    wan_dropped: int
    passed_pinhole: int                 # inbound passes attributed to pinholes
    fault_events: int                   # injector counter total (0 = clean)
    devices: tuple[DeviceExposure, ...]
    decoy_hits: int = 0                 # decoy responses: must stay 0

    @property
    def discoverable_devices(self) -> list[str]:
        return [d.device for d in self.devices if d.discoverable]

    @property
    def any_reachable(self) -> bool:
        return any(d.reachable for d in self.devices)

    def entries(self, strategy: str) -> int:
        """Exploitable entry addresses: strategy-visible addresses belonging
        to devices with a WAN-reachable open TCP service."""
        return sum(d.entries(strategy) for d in self.devices if d.exploitable)

    def susceptible(self, strategy: str) -> bool:
        return not self.immune and self.entries(strategy) > 0


def leaked_addresses(testbed: Testbed) -> dict[str, tuple[ipaddress.IPv6Address, ...]]:
    """Per-device GUAs that sourced traffic — what server logs, passive DNS
    and NetFlow leaks hand a hitlist-replay attacker (Rye et al.)."""
    hitlist: dict[str, tuple[ipaddress.IPv6Address, ...]] = {}
    for device in testbed.devices:
        used = sorted(
            (record.address for record in device.stack.addrs.assigned(AddressScope.GUA) if record.used),
            key=int,
        )
        if used:
            hitlist[device.name] = tuple(used)
    return hitlist


def run_home_exposure(spec: ExposureSpec) -> HomeExposure:
    """Build the home (optionally faulted), settle, install pinholes, scan.

    IPv4-only homes return an immune summary instead of raising: in a mixed
    fleet rollout they are legitimate population members a WAN attacker
    simply cannot reach over v6 (NAT44's accidental shield, the paper's
    baseline).

    Consults the ambient study cache: the firewall mode rides inside the
    resolved config, the fault schedule's *content* (not just its name) and
    ``leak`` join the closure, and the stored :class:`HomeExposure` carries
    no ``home_id``.
    """
    config = with_fidelity(with_firewall(resolve_config(spec.config_name), spec.firewall), spec.fidelity)
    if not config.ipv6:
        # Immune: no candidate space, no probe sent, no device to count.
        return HomeExposure(spec.config_name, spec.firewall, True, 0, 0, 0, 0, 0, 0, devices=())

    profiles = profiles_by_name(spec.device_names)
    schedule = get_fault(spec.fault_name) if spec.fault_name != NO_FAULTS.name else None
    fingerprint = study_fingerprint(
        sim_seed=spec.sim_seed,
        config=config,
        profiles=profiles,
        fault_schedule=schedule,
        extra=("leak", spec.leak),
    )
    return cached_artifact(fingerprint, "exposure-scan", lambda: _scan_home(spec, config, profiles, schedule))


def _scan_home(spec: ExposureSpec, config, profiles, schedule) -> HomeExposure:
    """The uncached body: build (optionally faulted), settle, pinhole, scan."""
    testbed = Testbed(seed=spec.sim_seed, profiles=profiles, include_controls=False)
    with closing(testbed):
        injector = FaultInjector.attach(testbed, schedule) if schedule is not None else None

        # No capture runs here, so the fast path's records are never read (the
        # scanner probes from the WAN).
        testbed.configure(config)
        if spec.leak:
            for device in testbed.devices:
                # One cloud check-in before the census, so the addresses devices
                # actually use have leaked by the time the hitlist is compiled.
                testbed.sim.schedule(CHECKIN_AT, device.checkin)
        testbed.sim.run(SETTLE)

        if spec.firewall == "pinhole":
            for device in testbed.devices:
                for proto, port in effective_pinholes(device.profile):
                    testbed.router.add_pinhole(device.mac, proto, port)

        hitlist = leaked_addresses(testbed) if spec.leak else {}
        scanner = WanScanner(testbed, extra_targets=hitlist)
        scan = scanner.run()
        knowledge = scanner.knowledge
        devices = tuple(
            DeviceExposure(
                device=name,
                addr_kind=headline_addr_kind(report.addr_kinds),
                gua_count=report.gua_count,
                discoverable=report.discoverable,
                responsive=report.responsive,
                reachable=report.reachable,
                open_tcp=tuple(sorted(report.open_tcp)),
                open_udp=tuple(sorted(report.open_udp)),
                eui64_entries=sum(1 for a in report.discovered if knowledge.synthesizes_eui64(a)),
                low_iid_entries=sum(1 for a in report.discovered if knowledge.synthesizes_low_iid(a)),
                hitlist_entries=len(hitlist.get(name, ())),
            )
            for name, report in sorted(scan.devices.items())
        )
        return HomeExposure(
            config_name=spec.config_name,
            firewall=spec.firewall,
            immune=False,
            eui64_space=knowledge.eui64_space,
            low_iid_space=knowledge.low_iid_space,
            probes_sent=scan.probes_sent,
            wan_dropped=scan.wan_dropped,
            passed_pinhole=testbed.router.firewall.passed_pinhole,
            fault_events=injector.counters.total if injector is not None else 0,
            devices=devices,
            decoy_hits=scan.decoy_hits,
        )
