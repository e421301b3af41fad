"""Population-level rollout statistics and the mergeable accumulators behind them.

This is where the fleet answers the question the single-lab paper cannot:
*across a customer base, what does a given rollout do?* The dataclasses
here are what the reports render; :class:`StreamStats` and
:class:`QuantileSketch` are the exactly-mergeable accumulators every
population fold builds them from, so the same fleet always aggregates to
the same bytes regardless of how it was sharded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from repro.stack.config import ALL_CONFIGS

_CONFIG_ORDER = [config.name for config in ALL_CONFIGS]


# --------------------------------------------------------- streaming folds
#
# The lifecycle time-series (and the sharded-fleet roadmap item after it)
# folds statistics shard-by-shard and epoch-by-epoch, so the accumulators
# here must merge *associatively*: any grouping of partial folds has to
# produce the same bytes. Counters, min and max are trivially associative;
# running totals are kept as exact `Fraction`s because float addition is
# not associative — converting to float only at read time makes
# ``(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`` hold exactly, which the property tests
# in tests/fleet/test_streaming.py pin down.


@dataclass(frozen=True)
class StreamStats:
    """Mergeable count/sum/min/max accumulator (the classic monoid fold)."""

    count: int = 0
    total: Fraction = Fraction(0)
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    @staticmethod
    def of(values: Iterable[float]) -> "StreamStats":
        stats = StreamStats()
        for value in values:
            stats = stats.add(value)
        return stats

    def add(self, value: float) -> "StreamStats":
        value = float(value)
        return StreamStats(
            count=self.count + 1,
            total=self.total + Fraction(value),
            minimum=value if self.minimum is None else min(self.minimum, value),
            maximum=value if self.maximum is None else max(self.maximum, value),
        )

    def merge(self, other: "StreamStats") -> "StreamStats":
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        return StreamStats(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def sum(self) -> float:
        return float(self.total)

    @property
    def mean(self) -> Optional[float]:
        return float(self.total / self.count) if self.count else None

    def __repr__(self) -> str:
        if self.count == 0:
            return "StreamStats(empty)"
        return (
            f"StreamStats(count={self.count}, sum={self.sum:g}, "
            f"min={self.minimum:g}, max={self.maximum:g})"
        )


@dataclass(frozen=True)
class QuantileSketch:
    """Mergeable quantile sketch over nonnegative samples (DDSketch-style).

    Nonzero values land in geometric buckets ``index = ceil(log_γ(v))`` with
    ``γ = (1 + α) / (1 - α)``, so every bucket's midpoint estimate is within
    relative error ``α`` of anything stored in it. Merging is bucketwise
    counter addition — exactly associative and commutative, unlike
    rank-sampling sketches — which is what lets lifecycle fold per-epoch
    partials in any grouping and still render identical bytes.
    """

    alpha: float = 0.01
    zero_count: int = 0
    buckets: dict[int, int] = field(default_factory=dict)
    stats: StreamStats = field(default_factory=StreamStats)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"relative accuracy must be in (0, 1), got {self.alpha}")

    @property
    def _gamma(self) -> float:
        return (1.0 + self.alpha) / (1.0 - self.alpha)

    @staticmethod
    def of(values: Iterable[float], alpha: float = 0.01) -> "QuantileSketch":
        sketch = QuantileSketch(alpha=alpha)
        for value in values:
            sketch = sketch.add(value)
        return sketch

    def add(self, value: float) -> "QuantileSketch":
        value = float(value)
        if value < 0.0 or math.isnan(value) or math.isinf(value):
            raise ValueError(f"sketch accepts finite nonnegative values, got {value}")
        buckets = dict(self.buckets)
        zero_count = self.zero_count
        if value == 0.0:
            zero_count += 1
        else:
            index = math.ceil(math.log(value) / math.log(self._gamma))
            buckets[index] = buckets.get(index, 0) + 1
        return QuantileSketch(
            alpha=self.alpha, zero_count=zero_count, buckets=buckets, stats=self.stats.add(value)
        )

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        if self.alpha != other.alpha:
            raise ValueError(f"cannot merge sketches with alpha {self.alpha} and {other.alpha}")
        buckets = dict(self.buckets)
        for index, count in other.buckets.items():
            buckets[index] = buckets.get(index, 0) + count
        return QuantileSketch(
            alpha=self.alpha,
            zero_count=self.zero_count + other.zero_count,
            buckets=buckets,
            stats=self.stats.merge(other.stats),
        )

    @property
    def count(self) -> int:
        return self.stats.count

    def quantile(self, q: float) -> Optional[float]:
        """The value at rank ``q`` (within ``alpha`` relative error)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * (self.count - 1)
        cumulative = self.zero_count
        if cumulative > rank:
            return 0.0
        gamma = self._gamma
        estimate = self.stats.maximum
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                estimate = 2.0 * gamma**index / (gamma + 1.0)
                break
        return min(max(estimate, self.stats.minimum), self.stats.maximum)

    @property
    def median(self) -> Optional[float]:
        return self.quantile(0.5)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.zero_count == other.zero_count
            and self.buckets == other.buckets
            and self.stats == other.stats
        )

    def __repr__(self) -> str:
        if self.count == 0:
            return f"QuantileSketch(alpha={self.alpha:g}, empty)"
        return (
            f"QuantileSketch(alpha={self.alpha:g}, count={self.count}, "
            f"zeros={self.zero_count}, buckets={len(self.buckets)}, "
            f"median={self.median:g})"
        )


@dataclass(frozen=True)
class ConfigStats:
    """Rollout impact on the homes assigned one network configuration."""

    config_name: str
    homes: int
    devices: int
    bricked_devices: int
    homes_with_bricked: int
    eui64_devices: int
    homes_with_eui64: int
    data_v6_devices: int

    @property
    def fraction_homes_bricked(self) -> float:
        """Fraction of homes with >= 1 bricked device."""
        return self.homes_with_bricked / self.homes if self.homes else 0.0

    @property
    def expected_bricked_per_home(self) -> float:
        return self.bricked_devices / self.homes if self.homes else 0.0

    @property
    def fraction_homes_eui64(self) -> float:
        """Fraction of homes leaking >= 1 MAC-derived global address."""
        return self.homes_with_eui64 / self.homes if self.homes else 0.0


@dataclass(frozen=True)
class ShareDistribution:
    """Distribution of per-home dual-stack IPv6 traffic share."""

    count: int
    minimum: float
    median: float
    mean: float
    maximum: float


@dataclass(frozen=True)
class FleetAggregate:
    """Everything the fleet report renders."""

    total_homes: int
    completed_homes: int
    failed_homes: tuple[tuple[int, str], ...]   # (home_id, first error line)
    per_config: tuple[ConfigStats, ...]
    v6_share: Optional[ShareDistribution]       # across dual-stack homes

    @property
    def total_devices(self) -> int:
        return sum(stats.devices for stats in self.per_config)

    @property
    def total_bricked(self) -> int:
        return sum(stats.bricked_devices for stats in self.per_config)

    @property
    def fraction_homes_bricked(self) -> float:
        with_bricked = sum(stats.homes_with_bricked for stats in self.per_config)
        return with_bricked / self.completed_homes if self.completed_homes else 0.0

    @property
    def expected_bricked_per_home(self) -> float:
        return self.total_bricked / self.completed_homes if self.completed_homes else 0.0

    @property
    def eui64_device_prevalence(self) -> float:
        """Fraction of all fleet devices that exposed an EUI-64 GUA."""
        exposed = sum(stats.eui64_devices for stats in self.per_config)
        return exposed / self.total_devices if self.total_devices else 0.0


def share_distribution(sketch: QuantileSketch) -> Optional[ShareDistribution]:
    """Render a share distribution from its streaming sketch.

    The median comes from the mergeable sketch and the rest from its exact
    ``stats``, so both are the same for any grouping of the homes into
    shards.
    """
    stats = sketch.stats
    if stats.count == 0:
        return None
    return ShareDistribution(
        count=stats.count,
        minimum=stats.minimum,
        median=sketch.median,
        mean=stats.mean,
        maximum=stats.maximum,
    )
