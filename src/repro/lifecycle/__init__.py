"""repro.lifecycle: longitudinal timelines over the simulated fleet.

The paper measures homes at one instant; this package grows that snapshot
into a movie. A seeded timeline engine advances every home through discrete
epochs — devices churn in and out, vendors ship firmware that swaps
capability profiles, RFC 8981 temporary addresses rotate the exposure
surface, and the ISP walks the fleet through staged config rollouts
(IPv4-only → dual-stack → IPv6-only). Each (home, epoch) cell is one
ordinary home study run through the existing fleet executor, and the
results fold into brick-rate / readiness / exposure trajectories.
"""

from repro.lifecycle.analysis import EpochExposure, EpochSummary, run_home_epoch, v6_ready
from repro.lifecycle.firmware import (
    REVISIONS,
    FirmwareRevision,
    apply_revisions,
    get_revision,
    upgrade_path,
)
from repro.lifecycle.population import (
    EpochStats,
    LifecycleAggregate,
    LifecycleFold,
    run_lifecycle_stream,
)
from repro.lifecycle.rollout import WAVES, RolloutWave, WaveStage, get_wave
from repro.lifecycle.timeline import (
    MIN_HOME_SIZE,
    EpochSpec,
    LifecycleParams,
    build_timeline,
)

__all__ = [
    "EpochExposure",
    "EpochSpec",
    "EpochStats",
    "EpochSummary",
    "FirmwareRevision",
    "LifecycleAggregate",
    "LifecycleFold",
    "LifecycleParams",
    "MIN_HOME_SIZE",
    "REVISIONS",
    "RolloutWave",
    "WAVES",
    "WaveStage",
    "apply_revisions",
    "build_timeline",
    "get_revision",
    "get_wave",
    "run_home_epoch",
    "run_lifecycle_stream",
    "upgrade_path",
    "v6_ready",
]
