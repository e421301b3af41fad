"""Wiring a :class:`~repro.faults.schedule.FaultSchedule` into a live testbed.

Two attachment points exist, mirroring where real degradation happens:

- :class:`LinkImpairment` sits in the LAN medium
  (:class:`repro.sim.link.EthernetLink`): seeded loss, added latency/jitter,
  and reordering, applied per transmitted frame while a window is active;
- :class:`RouterFaultState` sits in the gateway
  (:class:`repro.stack.router.Router`): RA suppression, DHCPv6 server
  outage, upstream-DNS blackhole, full uplink flaps and IPv6-only
  blackholes, applied at the service/forwarding decision points.

Both are *pull* hooks: the link/router consult them at the moment a frame or
service event happens, so attaching an injector schedules no events of its
own and a schedule with no active windows is provably wire-invisible (no RNG
draws, no latency change, no drops — the property tests in
``tests/faults/test_noop_property.py`` pin this down). Each hook also says
whether a span of time is quiet for the traffic it acts on, which is how the
flow fast path (:mod:`repro.stack.flowpath`) knows that eliding frames then
is invisible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.faults.schedule import LINK_FAULT_KINDS, FaultSchedule

if TYPE_CHECKING:
    from repro.testbed.lab import Testbed

# Frames held back by an active reorder window are delayed by this many
# extra link-latency multiples, so immediately following frames overtake.
REORDER_HOLDBACK = 4.0


@dataclass
class FaultCounters:
    """What the injector actually did to the run (picklable)."""

    frames_dropped: int = 0
    frames_delayed: int = 0
    frames_reordered: int = 0
    ra_suppressed: int = 0
    dhcpv6_dropped: int = 0
    dns_dropped: int = 0
    wan_dropped: int = 0          # uplink-down drops, both directions/families
    v6_blackholed: int = 0

    @property
    def total(self) -> int:
        return (
            self.frames_dropped
            + self.frames_delayed
            + self.frames_reordered
            + self.ra_suppressed
            + self.dhcpv6_dropped
            + self.dns_dropped
            + self.wan_dropped
            + self.v6_blackholed
        )


class LinkImpairment:
    """Per-frame LAN impairment consulted by ``EthernetLink.transmit``."""

    def __init__(self, schedule: FaultSchedule, rng, counters: Optional[FaultCounters] = None):
        self.schedule = schedule
        self.rng = rng
        self.counters = counters if counters is not None else FaultCounters()

    def quiet(self, now: float, horizon: float) -> bool:
        """True when no window ``transit_delay`` acts on is active at any
        instant of ``[now, now + horizon]``: every link kind perturbs frames."""
        return not self.schedule.touches(LINK_FAULT_KINDS, now, now + horizon)

    def transit_delay(self, now: float, base: float) -> Optional[float]:
        """The delivery delay for a frame sent at ``now`` (None = lost).

        With no active window this returns ``base`` untouched and draws no
        randomness, so an idle impairment cannot perturb the simulation.
        """
        loss = self.schedule.active("loss", now)
        if loss is not None and self.rng.random() < loss.severity:
            self.counters.frames_dropped += 1
            return None
        delay = base
        latency = self.schedule.active("latency", now)
        if latency is not None:
            delay += latency.severity
            if latency.jitter:
                delay += self.rng.random() * latency.jitter
            self.counters.frames_delayed += 1
        reorder = self.schedule.active("reorder", now)
        if reorder is not None and self.rng.random() < reorder.severity:
            delay += base * REORDER_HOLDBACK
            self.counters.frames_reordered += 1
        return delay


class RouterFaultState:
    """Gateway-side fault switchboard consulted by ``Router`` hot paths."""

    def __init__(self, schedule: FaultSchedule, counters: Optional[FaultCounters] = None):
        self.schedule = schedule
        self.counters = counters if counters is not None else FaultCounters()

    def ra_suppressed(self, now: float) -> bool:
        if self.schedule.active("ra-suppress", now) is None:
            return False
        self.counters.ra_suppressed += 1
        return True

    def dhcpv6_down(self, now: float) -> bool:
        if self.schedule.active("dhcpv6-outage", now) is None:
            return False
        self.counters.dhcpv6_dropped += 1
        return True

    def drops_wan(self, now: float, *, family: int, dns: bool) -> bool:
        """Should a WAN-bound (or WAN-originated) packet be blackholed?"""
        if self.schedule.active("uplink-down", now) is not None:
            self.counters.wan_dropped += 1
            return True
        if family == 6 and self.schedule.active("v6-blackhole", now) is not None:
            self.counters.v6_blackholed += 1
            return True
        if dns and self.schedule.active("dns-outage", now) is not None:
            self.counters.dns_dropped += 1
            return True
        return False

    def wan_quiet(self, now: float, horizon: float, *, family: int, dns: bool) -> bool:
        """True when no window ``drops_wan`` drops this traffic for is active
        at any instant of ``[now, now + horizon]``."""
        kinds = ("uplink-down", "v6-blackhole") if family == 6 else ("uplink-down",)
        if dns:
            kinds += ("dns-outage",)
        return not self.schedule.touches(kinds, now, now + horizon)


@dataclass
class FaultInjector:
    """Attach one schedule to a testbed's link and router, with shared counters."""

    schedule: FaultSchedule
    counters: FaultCounters = field(default_factory=FaultCounters)
    link_impairment: Optional[LinkImpairment] = None
    router_state: Optional[RouterFaultState] = None

    @staticmethod
    def attach(testbed: "Testbed", schedule: FaultSchedule) -> "FaultInjector":
        """Wire ``schedule`` into ``testbed``; the stochastic stream derives
        from the simulator seed and the schedule name, so the same (seed,
        schedule) pair always impairs identically."""
        injector = FaultInjector(schedule=schedule)
        injector.link_impairment = LinkImpairment(
            schedule, testbed.sim.rng_for(f"faults/{schedule.name}"), injector.counters
        )
        injector.router_state = RouterFaultState(schedule, injector.counters)
        testbed.link.impairment = injector.link_impairment
        testbed.router.faults = injector.router_state
        return injector

    def detach(self, testbed: "Testbed") -> None:
        if testbed.link.impairment is self.link_impairment:
            testbed.link.impairment = None
        if testbed.router.faults is self.router_state:
            testbed.router.faults = None
