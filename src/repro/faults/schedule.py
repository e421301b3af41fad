"""Deterministic fault schedules: *what* degrades, *when*, and *how hard*.

A :class:`FaultWindow` is one impairment active over a closed-open interval
of simulated time; a :class:`FaultSchedule` is a named, composable set of
windows. Schedules are pure data — injecting them into a running testbed is
:mod:`repro.faults.inject`'s job — so the same schedule object can drive a
single lab study, a property test, or a thousand-home fleet sweep and always
mean exactly the same thing.

Determinism contract (see DESIGN.md §9):

- windows activate and clear at fixed simulated timestamps, never wall-clock;
- every stochastic impairment (loss, jitter, reordering) draws from a
  dedicated ``sim.rng_for`` stream, and only draws while a window is active —
  a schedule whose windows never overlap the run is *wire-invisible*: the
  captured bytes are identical to a run with no schedule attached at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

# The impairment vocabulary. Link-level kinds perturb every LAN frame;
# router-level kinds disable one gateway service or forwarding path.
LINK_FAULT_KINDS = (
    "loss",          # drop each frame with probability `severity`
    "latency",       # add `severity` seconds (+ uniform `jitter`) of delay
    "reorder",       # with probability `severity`, delay a frame past its successors
)
ROUTER_FAULT_KINDS = (
    "ra-suppress",   # the RA daemon goes silent (no beacons, no RS answers)
    "dhcpv6-outage", # the DHCPv6 server drops every client message
    "dns-outage",    # upstream DNS blackholes (port-53 WAN traffic dropped)
    "uplink-down",   # the WAN uplink flaps: all forwarding stops, both families
    "v6-blackhole",  # only the IPv6 uplink dies (the paper's broken-v6 case)
)
FAULT_KINDS = LINK_FAULT_KINDS + ROUTER_FAULT_KINDS


@dataclass(frozen=True)
class FaultWindow:
    """One impairment, active for simulated time ``start <= now < end``."""

    kind: str
    start: float
    end: float
    severity: float = 1.0   # loss/reorder probability, or latency seconds
    jitter: float = 0.0     # extra uniform latency drawn per frame (seconds)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})")
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"need 0 <= start <= end, got [{self.start}, {self.end})")
        if not 0.0 <= self.severity or (self.kind in ("loss", "reorder") and self.severity > 1.0):
            raise ValueError(f"severity {self.severity} out of range for {self.kind!r}")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultSchedule:
    """A named, composable set of fault windows (immutable, picklable)."""

    name: str = "custom"
    windows: tuple[FaultWindow, ...] = ()

    def __post_init__(self):
        # Normalize: deterministic window order whatever order callers used.
        # The key is total (every field participates) so schedules that tie
        # on interval and kind still order canonically — `a.combine(b)` and
        # `b.combine(a)` hold identical window tuples.
        ordered = tuple(
            sorted(self.windows, key=lambda w: (w.start, w.end, w.kind, w.severity, w.jitter))
        )
        object.__setattr__(self, "windows", ordered)

    @staticmethod
    def of(name: str, windows: Iterable[FaultWindow]) -> "FaultSchedule":
        return FaultSchedule(name=name, windows=tuple(windows))

    def combine(self, other: "FaultSchedule", name: Optional[str] = None) -> "FaultSchedule":
        """Overlay two schedules (windows of both apply)."""
        return FaultSchedule(name=name or f"{self.name}+{other.name}", windows=self.windows + other.windows)

    def shifted(self, offset: float) -> "FaultSchedule":
        """The same impairments, ``offset`` seconds later."""
        return FaultSchedule(
            name=self.name,
            windows=tuple(replace(w, start=w.start + offset, end=w.end + offset) for w in self.windows),
        )

    def active(self, kind: str, now: float) -> Optional[FaultWindow]:
        """The first active window of ``kind`` at ``now`` (or None)."""
        for window in self.windows:
            if window.kind == kind and window.active(now):
                return window
        return None

    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted({window.kind for window in self.windows}))

    @property
    def is_noop(self) -> bool:
        """True when no window can ever activate (all zero-duration)."""
        return all(window.duration == 0.0 for window in self.windows)

    @property
    def first_start(self) -> Optional[float]:
        starts = [w.start for w in self.windows if w.duration > 0]
        return min(starts) if starts else None

    @property
    def last_end(self) -> Optional[float]:
        """When the final non-empty window clears (recovery starts here)."""
        ends = [w.end for w in self.windows if w.duration > 0]
        return max(ends) if ends else None

    def touches(self, kinds, start: float, end: float) -> bool:
        """Is a non-empty window of one of ``kinds`` active at some instant
        of the closed interval ``[start, end]``?"""
        for window in self.windows:
            if window.kind in kinds and window.duration > 0 and window.start <= end and start < window.end:
                return True
        return False

    def overlaps(self, horizon: float) -> bool:
        """Does any non-empty window intersect simulated time [0, horizon)?"""
        return any(w.duration > 0 and w.start < horizon for w in self.windows)


NO_FAULTS = FaultSchedule(name="none")


# ------------------------------------------------------------------ presets
#
# Timestamps align with the connectivity-experiment timeline
# (repro.testbed.experiments): settle ends at 120 s, check-ins fire at 120 s
# and 620 s, the functionality test runs at 1150 s, the run ends at 1400 s.

FAULT_PRESETS: dict[str, FaultSchedule] = {
    schedule.name: schedule
    for schedule in (
        NO_FAULTS,
        # Upstream resolver blackout across the first check-in; cleared well
        # before the functionality test → query storms, then recovery.
        FaultSchedule.of("dns-blackout", [FaultWindow("dns-outage", 100.0, 700.0)]),
        # Resolver dies late and stays dead through the functionality test →
        # devices brick at test time despite a clean boot.
        FaultSchedule.of("dns-brownout", [FaultWindow("dns-outage", 1000.0, 1400.0)]),
        # The WAN link flaps twice, once per check-in window.
        FaultSchedule.of(
            "uplink-flap",
            [FaultWindow("uplink-down", 100.0, 180.0), FaultWindow("uplink-down", 560.0, 680.0)],
        ),
        # Only the IPv6 path dies (tunnel outage): dual-stack devices fall
        # back to IPv4 after their happy-eyeballs timer; IPv6-only homes brick.
        FaultSchedule.of("v6-brownout", [FaultWindow("v6-blackhole", 100.0, 1400.0)]),
        # The RA daemon never speaks: SLAAC-dependent devices cannot
        # configure (missing-RA misconfiguration, full run).
        FaultSchedule.of("ra-blackout", [FaultWindow("ra-suppress", 0.0, 1400.0)]),
        # RA outage confined to the boot/settle phase (the adversary
        # subsystem's composition case): SLAAC addresses never form before
        # the scan, so EUI-64 sweeps find less even though the network
        # later recovers.
        FaultSchedule.of("ra-settle-outage", [FaultWindow("ra-suppress", 0.0, 150.0)]),
        # The DHCPv6 server is down for the whole run (stateful configs lose
        # leases and stateless configs lose their resolver).
        FaultSchedule.of("dhcpv6-outage", [FaultWindow("dhcpv6-outage", 0.0, 1400.0)]),
        # A congested/flaky LAN through both check-ins: 15% loss plus
        # 50 ms +- 50 ms of extra one-way delay.
        FaultSchedule.of(
            "flaky-lan",
            [
                FaultWindow("loss", 100.0, 900.0, severity=0.15),
                FaultWindow("latency", 100.0, 900.0, severity=0.05, jitter=0.05),
            ],
        ),
    )
}


def get_fault(name: str) -> FaultSchedule:
    """Resolve a preset schedule by name."""
    try:
        return FAULT_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_PRESETS))
        raise KeyError(f"unknown fault preset {name!r} (known: {known})") from None
