"""Benchmarks for sharded streaming fleet runs: scaling + bounded memory.

Three gates, one artifact (``BENCH_fleet_shards.json``):

- **byte-identity** — ``--shards 4`` renders the same bytes as ``--shards 1``
  (the determinism contract the whole refactor hangs on);
- **core scaling** — 4 shards must finish a flow-fidelity fleet at least
  1.6x faster than 1 shard (skipped on machines with fewer than 4 cores);
- **bounded RSS** — a sharded run folds each home into O(shards) streaming
  aggregates instead of retaining O(homes) summaries, and each shard frees
  a finished home before it starts the next, so peak RSS must stay below a
  *fixed* ceiling no matter how many homes run. The nightly CI job
  sets ``FLEET_SHARD_BENCH_HOMES=10000`` and ``FLEET_SHARD_RSS_CEILING_MB``
  to enforce this on a 10k-home run; locally the run is small and the
  ceiling check is report-only unless the variable is set.

The artifact also projects the 1M-home target: at the measured per-home
rate, the JSON records how many shard-hours a million-home flow-fidelity
run would take — the population scale the ROADMAP's sharding item aims at.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.fleet import get_scenario, run_fleet_stream
from repro.reports import render_fleet_summary

BENCH_PATH = Path(__file__).parent / "BENCH_fleet_shards.json"

# Fixed-size run for the identity + speedup gates (cheap enough for every CI
# run); the RSS gate scales with FLEET_SHARD_BENCH_HOMES for the nightly job.
SPEEDUP_HOMES = 40
RSS_HOMES = int(os.environ.get("FLEET_SHARD_BENCH_HOMES", "40"))
RSS_CEILING_MB = float(os.environ.get("FLEET_SHARD_RSS_CEILING_MB", "0"))  # 0: report only
SEED = 1
SHARDS = 4

SHARD_BENCH: dict = {
    "fidelity": "flow",
    "shards": SHARDS,
    "target_note": "1M homes is the ROADMAP population target for sharded runs",
}


def _run(homes: int, shards: int):
    return run_fleet_stream(
        homes, seed=SEED, scenario=get_scenario("flip50"), fidelity="flow", shards=shards
    )


def _rss_mb(who: int) -> float:
    # ru_maxrss is KiB on Linux and bytes on macOS.
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(who).ru_maxrss / scale


@pytest.mark.parametrize("platform, maxrss", [("linux", 3 * 1024), ("darwin", 3 * 1024 * 1024)])
def test_rss_mb_reads_mib_on_each_platform(platform, maxrss, monkeypatch):
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss))
    assert _rss_mb(resource.RUSAGE_SELF) == 3.0


@pytest.fixture(scope="module", autouse=True)
def emit_artifact():
    yield
    if "per_home_seconds" in SHARD_BENCH:
        rate = SHARD_BENCH["per_home_seconds"]
        SHARD_BENCH["projected_1m_home_shard_hours"] = round(rate * 1_000_000 / 3600.0, 1)
        SHARD_BENCH["projected_1m_home_hours_at_4_shards"] = round(
            rate * 1_000_000 / SHARDS / 3600.0, 1
        )
    BENCH_PATH.write_text(json.dumps(SHARD_BENCH, indent=2, sort_keys=True) + "\n")


def test_sharded_fleet_renders_identical_bytes(record):
    single = _run(SPEEDUP_HOMES, 1)
    sharded = _run(SPEEDUP_HOMES, SHARDS)
    text = render_fleet_summary(sharded)
    record("fleet_sharded", text)
    SHARD_BENCH["bytes_identical"] = text == render_fleet_summary(single)
    assert sharded == single
    assert SHARD_BENCH["bytes_identical"]


@pytest.mark.skipif((os.cpu_count() or 1) < SHARDS, reason=f"needs >= {SHARDS} cores")
def test_bench_shard_speedup_is_near_linear():
    started = time.perf_counter()
    single = _run(SPEEDUP_HOMES, 1)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sharded = _run(SPEEDUP_HOMES, SHARDS)
    sharded_seconds = time.perf_counter() - started

    assert sharded == single
    speedup = serial_seconds / sharded_seconds
    SHARD_BENCH["speedup_homes"] = SPEEDUP_HOMES
    SHARD_BENCH["serial_seconds"] = round(serial_seconds, 3)
    SHARD_BENCH["sharded_seconds"] = round(sharded_seconds, 3)
    SHARD_BENCH["speedup"] = round(speedup, 2)
    # Near-linear would be 4.0x; 1.6x is the floor that still proves the
    # shards genuinely overlap (pool startup + merge overhead included).
    assert speedup >= 1.6, f"4-shard speedup {speedup:.2f}x below the 1.6x floor"


def test_bench_shard_rss_stays_bounded():
    """Peak RSS of a sharded flow-fidelity run vs the fixed ceiling.

    The parent holds only merged accumulators and each long-lived shard
    process holds one home at a time: the worker closes each finished
    home's testbed, which then frees by reference counting before the next
    home starts, with no wait for a full collection. So ``ru_maxrss`` (self
    + reaped shard children) must not grow with FLEET_SHARD_BENCH_HOMES.
    The nightly job runs this at 10k homes with the ceiling enforced; a
    retained-summaries regression would blow straight past it.
    """
    aggregate = _run(RSS_HOMES, SHARDS)
    assert aggregate.total_homes == RSS_HOMES
    assert aggregate.completed_homes == RSS_HOMES

    self_mb = _rss_mb(resource.RUSAGE_SELF)
    children_mb = _rss_mb(resource.RUSAGE_CHILDREN)
    peak_mb = max(self_mb, children_mb)
    SHARD_BENCH["rss_homes"] = RSS_HOMES
    SHARD_BENCH["rss_self_mb"] = round(self_mb, 1)
    SHARD_BENCH["rss_children_mb"] = round(children_mb, 1)
    SHARD_BENCH["rss_peak_mb"] = round(peak_mb, 1)
    SHARD_BENCH["rss_ceiling_mb"] = RSS_CEILING_MB or None

    started = time.perf_counter()
    _run(min(RSS_HOMES, 8), 1)
    SHARD_BENCH["per_home_seconds"] = round(
        (time.perf_counter() - started) / min(RSS_HOMES, 8), 4
    )

    if RSS_CEILING_MB:
        assert peak_mb <= RSS_CEILING_MB, (
            f"peak RSS {peak_mb:.0f} MiB exceeds the {RSS_CEILING_MB:.0f} MiB ceiling "
            f"on a {RSS_HOMES}-home run — memory is growing with the population"
        )
