"""Per-home susceptibility measurement: the picklable adversary fleet worker.

``run_home_susceptibility`` is the adversary analogue of
``run_home_exposure``: it rebuilds one home inside the worker process, lets
it autoconfigure (optionally under an injected fault schedule — an RA outage
during settle leaves SLAAC addresses unformed, which is exactly the
composition question the subsystem answers), then measures what a WAN
attacker can actually exploit with real probes through the router's
firewall:

- every candidate address a sweep strategy would synthesize is probed
  (reusing :class:`repro.exposure.wanscan.WanScanner` wholesale);
- every *leaked* address — a GUA the device actually sourced traffic from,
  the raw material of hitlist replay — is probed too, via the scanner's
  ``extra_targets`` hook, so privacy addresses that defeat synthesis are
  still tested against the firewall;
- a device is an **entry point** when at least one of its addresses answers
  a TCP SYN on an open port from the WAN (ICMPv6 echo alone is information,
  not code execution).

The flattened :class:`HomeSusceptibility` carries per-strategy entry counts,
so the epidemic layer never re-runs packets: the worm's targeting and spread
are pure functions of these summaries.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache import cached_artifact, study_fingerprint
from repro.exposure.analysis import effective_pinholes, headline_addr_kind
from repro.exposure.wanscan import WanScanner
from repro.faults.schedule import NO_FAULTS, get_fault
from repro.net.ip6 import AddressScope
from repro.stack.config import with_fidelity, with_firewall
from repro.testbed.lab import Testbed
from repro.testbed.study import profiles_by_name, resolve_config

if TYPE_CHECKING:
    from repro.adversary.population import AdversarySpec

# The sweep strategies; "hitlist" replays leaked addresses instead of
# synthesizing candidates. Defined next to the worker that counts each
# device's entries per strategy; the worm's target space reads the same names.
STRATEGIES = ("eui64-sweep", "low-iid", "hitlist")

# When the single pre-scan cloud check-in fires (the connectivity-experiment
# timeline's first cycle): addresses only reach the hitlist by *leaking*, and
# they only leak when devices source real traffic from them.
CHECKIN_AT = 120.0


@dataclass(frozen=True)
class DeviceSusceptibility:
    """One device's measured attack surface (picklable)."""

    device: str
    addr_kind: str                      # headline kind, exposure's labels
    gua_count: int
    exploitable: bool                   # >=1 WAN-reachable open TCP port
    open_tcp: tuple[int, ...]
    eui64_entries: int                  # addresses an OUI x suffix sweep finds
    low_iid_entries: int                # addresses in the low-IID hitlist
    hitlist_entries: int                # leaked (used) GUAs a replay list holds

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
class HomeSusceptibility:
    """One home's measured worm susceptibility under one firewall mode.

    Everything here follows from the study's fingerprint; the home id and
    fault name that label it come from its :class:`AdversarySpec`.
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
    devices: tuple[DeviceSusceptibility, ...]

    def entries(self, strategy: str) -> int:
        """Exploitable entry addresses: strategy-visible addresses belonging
        to devices with a WAN-reachable open TCP service."""
        return sum(d.entries(strategy) for d in self.devices if d.exploitable)

    def susceptible(self, strategy: str) -> bool:
        return not self.immune and self.entries(strategy) > 0


def _immune_home(spec: "AdversarySpec") -> HomeSusceptibility:
    return HomeSusceptibility(
        config_name=spec.config_name,
        firewall=spec.firewall,
        immune=True,
        eui64_space=0,
        low_iid_space=0,
        probes_sent=0,
        wan_dropped=0,
        passed_pinhole=0,
        fault_events=0,
        devices=(),
    )


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


def run_home_susceptibility(spec: "AdversarySpec") -> HomeSusceptibility:
    """Build the home (optionally faulted), settle, probe, classify.

    IPv4-only homes return an immune summary instead of raising: in a mixed
    fleet rollout they are legitimate population members the worm simply
    cannot reach over v6 (NAT44's accidental shield, the paper's baseline).

    Consults the ambient study cache; the fault schedule's *content* joins
    the closure (not just its name), and the stored
    :class:`HomeSusceptibility` carries no ``home_id``.
    """
    config = with_firewall(resolve_config(spec.config_name), spec.firewall)
    config = with_fidelity(config, spec.fidelity)
    if not config.ipv6:
        return _immune_home(spec)

    profiles = profiles_by_name(spec.device_names)
    schedule = get_fault(spec.fault_name) if spec.fault_name != NO_FAULTS.name else None
    fingerprint = study_fingerprint(
        sim_seed=spec.sim_seed,
        config=config,
        profiles=profiles,
        fault_schedule=schedule,
        extra=("settle", spec.settle),
    )

    return cached_artifact(
        fingerprint, "adversary-susceptibility", lambda: _measure_home(spec, config, profiles, schedule)
    )


def _measure_home(
    spec: "AdversarySpec", config, profiles, schedule
) -> HomeSusceptibility:
    """The uncached body: build (optionally faulted), settle, probe."""
    testbed = Testbed(seed=spec.sim_seed, profiles=profiles, include_controls=False)

    injector = None
    if schedule is not None:
        from repro.faults.inject import FaultInjector

        injector = FaultInjector.attach(testbed, schedule)

    # No capture runs here either (see run_home_exposure): the fast path's
    # records are never read.
    testbed.configure(config)
    for device in testbed.devices:
        # One cloud check-in before the census, so the addresses devices
        # actually use have leaked by the time the hitlist is compiled.
        testbed.sim.schedule(min(CHECKIN_AT, spec.settle * 0.8), device.checkin)
    testbed.sim.run(spec.settle)

    if spec.firewall == "pinhole":
        for device in testbed.devices:
            for proto, port in effective_pinholes(device.profile):
                testbed.router.add_pinhole(device.mac, proto, port)

    hitlist = leaked_addresses(testbed)
    scanner = WanScanner(testbed, extra_targets=hitlist)
    scan = scanner.run()
    # Vantage hygiene: release the Internet-zone endpoint so a home summary
    # never aliases a stale scanner through the shared zone.
    testbed.internet.detach_endpoint(scanner.address)
    knowledge = scanner.knowledge
    prefix = testbed.router.lan_v6_prefix

    devices = []
    for name in sorted(scan.devices):
        report = scan.devices[name]
        in_prefix = [a for a in report.discovered if a in prefix]
        devices.append(
            DeviceSusceptibility(
                device=name,
                addr_kind=headline_addr_kind(report.addr_kinds),
                gua_count=report.gua_count,
                exploitable=bool(report.open_tcp),
                open_tcp=tuple(sorted(report.open_tcp)),
                eui64_entries=sum(1 for a in in_prefix if knowledge.synthesizes_eui64(a)),
                low_iid_entries=sum(1 for a in in_prefix if knowledge.synthesizes_low_iid(a)),
                hitlist_entries=len(hitlist.get(name, ())),
            )
        )

    return HomeSusceptibility(
        config_name=spec.config_name,
        firewall=spec.firewall,
        immune=False,
        eui64_space=knowledge.eui64_space,
        low_iid_space=knowledge.low_iid_space,
        probes_sent=scan.probes_sent,
        wan_dropped=scan.wan_dropped,
        passed_pinhole=testbed.router.firewall.passed_pinhole,
        fault_events=injector.counters.total if injector is not None else 0,
        devices=tuple(devices),
    )
