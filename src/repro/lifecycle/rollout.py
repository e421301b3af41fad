"""ISP transition waves: which network config each home runs in each epoch.

A :class:`RolloutWave` is a staged schedule over the fleet: every home draws
one *position* in ``[0, 1)`` from a seeded stream, and each
:class:`WaveStage` says "from ``epoch`` on, the first ``fraction`` of the
position line runs ``config_name``". Fractions are cumulative, so a home
transitioned by the 25% stage is — by construction — also covered by the
50% stage: widening a rollout moves *more* homes, never *different* homes
(common random numbers across waves and sweeps).

Waves are pure data + arithmetic. They know nothing about simulation; the
timeline engine (:mod:`repro.lifecycle.timeline`) asks ``config_at`` one
(epoch, position) pair at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.testbed.study import resolve_config


@dataclass(frozen=True)
class WaveStage:
    """From ``epoch`` onward, homes with position < ``fraction`` run ``config_name``."""

    epoch: int
    fraction: float
    config_name: str

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError(f"stage epoch must be >= 0, got {self.epoch}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"stage fraction must be in (0, 1], got {self.fraction}")
        resolve_config(self.config_name)  # raises on unknown names


@dataclass(frozen=True)
class RolloutWave:
    """A named, staged ISP rollout schedule (immutable, picklable)."""

    name: str
    base_config: str
    stages: tuple[WaveStage, ...] = ()
    description: str = ""

    def __post_init__(self):
        resolve_config(self.base_config)
        ordered = tuple(sorted(self.stages, key=lambda s: (s.epoch, s.fraction, s.config_name)))
        object.__setattr__(self, "stages", ordered)

    def config_at(self, epoch: int, position: float) -> str:
        """The config a home at ``position`` runs during ``epoch``.

        Later stages win: a home covered by both the dual-stack stage and
        the v6-only stage runs whatever the most recent covering stage says.
        """
        name = self.base_config
        for stage in self.stages:
            if stage.epoch <= epoch and position < stage.fraction:
                name = stage.config_name
        return name


WAVES: dict[str, RolloutWave] = {
    wave.name: wave
    for wave in (
        # Control: nobody moves — the churn/firmware baseline every other
        # wave's trajectory is compared against.
        RolloutWave("none", "dual-stack", (), "no transition; dual-stack control"),
        # Everyone at once: the overnight CGN-retirement scenario.
        RolloutWave(
            "flash-cut",
            "dual-stack",
            (WaveStage(2, 1.0, "ipv6-only"),),
            "entire fleet to IPv6-only at epoch 2",
        ),
        # The paper's motivating scenario, rolled out the way ISPs do it:
        # quarters of the customer base at a time.
        RolloutWave(
            "staged-v6only",
            "dual-stack",
            (
                WaveStage(2, 0.25, "ipv6-only"),
                WaveStage(4, 0.50, "ipv6-only"),
                WaveStage(6, 0.75, "ipv6-only"),
                WaveStage(8, 1.00, "ipv6-only"),
            ),
            "dual-stack fleet to IPv6-only in quarters (epochs 2/4/6/8)",
        ),
        # A legacy v4 ISP modernizing in two hops: dual-stack first, then
        # retiring IPv4 for the early cohort.
        RolloutWave(
            "v4-sunset",
            "ipv4-only",
            (
                WaveStage(1, 0.5, "dual-stack"),
                WaveStage(3, 1.0, "dual-stack"),
                WaveStage(5, 0.5, "ipv6-only"),
                WaveStage(7, 1.0, "ipv6-only"),
            ),
            "IPv4-only fleet: dual-stack by epoch 3, early half to IPv6-only",
        ),
        # A cautious ISP: 10% canary cohort, long soak, then the rest.
        RolloutWave(
            "canary",
            "dual-stack",
            (WaveStage(1, 0.1, "ipv6-only"), WaveStage(6, 1.0, "ipv6-only")),
            "10% canary at epoch 1, fleet-wide at epoch 6",
        ),
        # DHCPv6-centric operators: stateful dual-stack first, then
        # stateful IPv6-only.
        RolloutWave(
            "stateful-migration",
            "dual-stack",
            (
                WaveStage(2, 0.5, "dual-stack-stateful"),
                WaveStage(3, 1.0, "dual-stack-stateful"),
                WaveStage(6, 1.0, "ipv6-only-stateful"),
            ),
            "to stateful dual-stack (epochs 2-3), then stateful IPv6-only",
        ),
    )
}


def get_wave(name: str) -> RolloutWave:
    """Resolve a rollout wave by name."""
    try:
        return WAVES[name]
    except KeyError:
        known = ", ".join(sorted(WAVES))
        raise KeyError(f"unknown rollout wave {name!r} (known: {known})") from None
