"""Injection mechanics: link impairment, router fault state, live testbeds."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.inject import FaultCounters, FaultInjector, LinkImpairment, RouterFaultState
from repro.faults.schedule import FaultSchedule, FaultWindow, get_fault
from repro.stack.config import DUAL_STACK, IPV6_ONLY
from repro.testbed.lab import Testbed
from tests.faults.test_schedule_properties import durations, times, window_lists


def _schedule(*windows):
    return FaultSchedule.of("t", windows)


class _CountingRng:
    """Deterministic stand-in that counts draws (no-op invisibility proof)."""

    def __init__(self, value=0.0):
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value


def test_link_impairment_outside_window_draws_nothing():
    rng = _CountingRng()
    impairment = LinkImpairment(_schedule(FaultWindow("loss", 100.0, 200.0, severity=1.0)), rng)
    assert impairment.transit_delay(50.0, 0.0005) == 0.0005
    assert impairment.transit_delay(200.0, 0.0005) == 0.0005
    assert rng.draws == 0
    assert impairment.counters.total == 0


def test_link_impairment_drops_and_delays_inside_window():
    rng = _CountingRng(value=0.0)  # random() < severity -> always drop
    impairment = LinkImpairment(_schedule(FaultWindow("loss", 0.0, 10.0, severity=0.5)), rng)
    assert impairment.transit_delay(5.0, 0.0005) is None
    assert impairment.counters.frames_dropped == 1

    latency = LinkImpairment(
        _schedule(FaultWindow("latency", 0.0, 10.0, severity=0.05, jitter=0.1)), _CountingRng(value=0.5)
    )
    delay = latency.transit_delay(5.0, 0.0005)
    assert abs(delay - (0.0005 + 0.05 + 0.05)) < 1e-9
    assert latency.counters.frames_delayed == 1

    reorder = LinkImpairment(_schedule(FaultWindow("reorder", 0.0, 10.0, severity=1.0)), _CountingRng(0.0))
    held = reorder.transit_delay(5.0, 0.0005)
    assert held > 0.0005  # held back past immediately following frames
    assert reorder.counters.frames_reordered == 1


def test_router_fault_state_switchboard():
    state = RouterFaultState(
        _schedule(
            FaultWindow("ra-suppress", 0.0, 10.0),
            FaultWindow("dhcpv6-outage", 0.0, 10.0),
            FaultWindow("dns-outage", 0.0, 10.0),
            FaultWindow("uplink-down", 20.0, 30.0),
            FaultWindow("v6-blackhole", 40.0, 50.0),
        )
    )
    assert state.ra_suppressed(5.0) and not state.ra_suppressed(15.0)
    assert state.dhcpv6_down(5.0) and not state.dhcpv6_down(15.0)
    # dns-outage only drops DNS traffic
    assert state.drops_wan(5.0, family=4, dns=True)
    assert not state.drops_wan(5.0, family=4, dns=False)
    # uplink-down drops everything
    assert state.drops_wan(25.0, family=4, dns=False)
    assert state.drops_wan(25.0, family=6, dns=False)
    # v6-blackhole drops only IPv6
    assert state.drops_wan(45.0, family=6, dns=False)
    assert not state.drops_wan(45.0, family=4, dns=False)
    assert state.counters.ra_suppressed == 1
    assert state.counters.dns_dropped == 1
    assert state.counters.wan_dropped == 2
    assert state.counters.v6_blackholed == 1


@settings(max_examples=300, deadline=None)
@given(
    window_lists,
    times,
    durations,
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from((4, 6)),
    st.booleans(),
)
def test_hooks_act_only_where_they_are_not_quiet(windows, now, horizon, fraction, family, dns):
    """Whatever a hook does to traffic at an instant, it does not call the
    span around that instant quiet: the flow fast path elides frames only
    over quiet spans. A kind that ``drops_wan`` or ``transit_delay`` acts on
    but its quiet check leaves out fails here."""
    schedule = FaultSchedule.of("random", windows)
    instant = now + horizon * fraction
    state = RouterFaultState(schedule)
    if state.drops_wan(instant, family=family, dns=dns):
        assert not state.wan_quiet(now, horizon, family=family, dns=dns)
    impairment = LinkImpairment(schedule, random.Random(7))
    if impairment.transit_delay(instant, 0.0005) != 0.0005:
        assert not impairment.quiet(now, horizon)


def test_counters_total_sums_every_field():
    counters = FaultCounters(frames_dropped=1, dns_dropped=2, wan_dropped=3)
    assert counters.total == 6


def test_injector_attach_detach_roundtrip():
    testbed = Testbed(seed=3, profiles=[], include_controls=False)
    injector = FaultInjector.attach(testbed, get_fault("dns-blackout"))
    assert testbed.link.impairment is injector.link_impairment
    assert testbed.router.faults is injector.router_state
    assert injector.link_impairment.counters is injector.counters
    assert injector.router_state.counters is injector.counters
    injector.detach(testbed)
    assert testbed.link.impairment is None
    assert testbed.router.faults is None


def test_ra_blackout_suppresses_router_advertisements():
    from repro.net.ethernet import ETHERTYPE_IPV6
    from repro.net.icmpv6 import ICMPv6, TYPE_ROUTER_ADVERT
    from repro.net.ipv6 import IPv6

    def count_ras(with_fault: bool) -> int:
        testbed = Testbed(seed=5, profiles=[], include_controls=False)
        if with_fault:
            FaultInjector.attach(testbed, get_fault("ra-blackout"))
        records = testbed.start_capture()
        testbed.router.configure(IPV6_ONLY)
        testbed.sim.run(120.0)
        ras = 0
        for record in records:
            frame = record.frame
            if frame is None or frame.ethertype != ETHERTYPE_IPV6:
                continue
            packet = frame.payload
            if isinstance(packet, IPv6) and isinstance(packet.payload, ICMPv6):
                if packet.payload.icmp_type == TYPE_ROUTER_ADVERT:
                    ras += 1
        return ras

    assert count_ras(with_fault=False) > 0
    assert count_ras(with_fault=True) == 0


def test_flaky_lan_drops_frames_deterministically():
    def run(seed: int):
        testbed = Testbed(seed=seed, profiles=[], include_controls=False)
        injector = FaultInjector.attach(testbed, get_fault("flaky-lan"))
        testbed.router.configure(DUAL_STACK)
        testbed.sim.run(300.0)
        return injector.counters.frames_dropped

    first, second = run(11), run(11)
    assert first == second  # same seed, same losses
    assert run(11) == first


def test_link_rng_stream_is_schedule_scoped():
    # The impairment stream derives from (simulator seed, schedule name):
    # two testbeds at the same seed get identical impairment randomness.
    t1 = Testbed(seed=9, profiles=[], include_controls=False)
    t2 = Testbed(seed=9, profiles=[], include_controls=False)
    i1 = FaultInjector.attach(t1, get_fault("flaky-lan"))
    i2 = FaultInjector.attach(t2, get_fault("flaky-lan"))
    draws1 = [i1.link_impairment.rng.random() for _ in range(16)]
    draws2 = [i2.link_impairment.rng.random() for _ in range(16)]
    assert draws1 == draws2
    assert draws1 != [random.Random(9).random() for _ in range(16)]
