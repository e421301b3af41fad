"""Benchmarks for the content-addressed study cache (DESIGN.md §15).

Three gates, one artifact (``BENCH_cache.json``):

- **in-run dedup** — an 8-schedule fault sweep split one-arm-per-spec
  simulates each home's clean baseline exactly once (verified by the
  cache's own counters, not timing) and finishes at least 1.5x faster
  than the uncached run, which re-simulates the baseline per arm;
- **warm persistence** — re-running with ``--cache`` against a populated
  store performs zero simulations (misses == 0) and finishes at least 3x
  faster than the cold run that filled it;
- **byte-identity** — the cached run renders the same bytes as the
  uncached one at ``--shards 1`` vs ``--shards 4``, for the split sweep
  and for the stock grid (the determinism contract caching must not bend;
  ``--jobs`` is an alias of ``--shards``).

The dedup arithmetic for the sweep workload: uncached, each of the 8
single-schedule specs per home runs baseline + arm = 16 studies/home;
cached, the baseline is simulated once and hit 7 times = 9 studies/home,
an expected ~1.78x. The 1.5x floor leaves room for lookup overhead.
"""

import dataclasses
import functools
import json
import time
from pathlib import Path

import pytest

from repro.cache import CacheSettings, cache_for, reset_process_caches
from repro.faults.population import FaultFold, _faults_unit, run_faults_stream, run_home_faults
from repro.fleet.shard import run_sharded
from repro.reports import render_faults

BENCH_PATH = Path(__file__).parent / "BENCH_cache.json"

HOMES = 2
SEED = 31
SHARDS = 4
# Every non-"none" preset: the 8-schedule sweep the dedup gate times.
SCHEDULES = (
    "dhcpv6-outage",
    "dns-blackout",
    "dns-brownout",
    "flaky-lan",
    "ra-blackout",
    "ra-settle-outage",
    "uplink-flap",
    "v6-brownout",
)

CACHE_BENCH: dict = {
    "fidelity": "flow",
    "homes": HOMES,
    "schedules": len(SCHEDULES),
    "workload_note": "one fault arm per spec; uncached = 16 studies/home, cached = 9",
}


def _sweep_unit(index: int):
    """Home ``index`` of the 8-schedule sweep, split one arm per spec (worst
    case without the cache: every spec re-simulates the clean baseline the
    cache can share). The unit is still the whole home, so its arms run
    back to back in one process."""
    (classic,) = _faults_unit(
        index, seed=SEED, config_names=("ipv6-only",), fault_names=SCHEDULES, checkins=2, fidelity="flow"
    )
    return tuple(dataclasses.replace(classic, fault_names=(name,)) for name in SCHEDULES)


def _sweep(cache=None, shards: int = 1):
    return run_sharded(
        HOMES, _sweep_unit, fold=FaultFold(), worker=run_home_faults, shards=shards, cache=cache
    )


_grid = functools.partial(
    run_faults_stream, HOMES, seed=SEED, config_names=("ipv6-only",), fault_names=SCHEDULES, fidelity="flow"
)


@pytest.fixture(scope="module", autouse=True)
def emit_artifact():
    yield
    BENCH_PATH.write_text(json.dumps(CACHE_BENCH, indent=2, sort_keys=True) + "\n")


def _best_of_interleaved(repeats, runs):
    """Best-of-N wall clock, interleaved: a 0.5 s measurement on a shared
    core can absorb a stray GC pass or scheduler blip worth 10%+, and the
    dedup ratio divides two such measurements. Timing A five times then B
    five times would also bake thermal/contention *drift* into the ratio, so
    each repeat times every contender back-to-back and the minimum per
    contender estimates its undisturbed time. ``reset_process_caches``
    before each run keeps every cached repeat a genuine in-run-dedup run
    (memory tier empty at the start) rather than an all-hits warm run."""
    best = [float("inf")] * len(runs)
    last = [None] * len(runs)
    for _ in range(repeats):
        for i, run in enumerate(runs):
            reset_process_caches()
            started = time.perf_counter()
            last[i] = run()
            best[i] = min(best[i], time.perf_counter() - started)
    return best, last


def test_bench_in_run_dedup_simulates_each_baseline_once(record):
    settings = CacheSettings(scope="bench-dedup")

    (uncached_seconds, cached_seconds), (uncached, cached) = _best_of_interleaved(
        5, (_sweep, lambda: _sweep(cache=settings))
    )

    text = render_faults(cached)
    record("faults_cached_sweep", text)
    assert text == render_faults(uncached)

    # The counters are the ground truth that the dedup actually happened:
    # per home, the baseline missed once and memory-hit on the other 7 arms.
    by_extractor = cache_for(settings).counters.by_extractor
    assert by_extractor["faults-baseline"] == [(len(SCHEDULES) - 1) * HOMES, 0, HOMES]
    assert by_extractor["faults-arm"] == [0, 0, len(SCHEDULES) * HOMES]

    speedup = uncached_seconds / cached_seconds
    CACHE_BENCH["dedup_uncached_seconds"] = round(uncached_seconds, 3)
    CACHE_BENCH["dedup_cached_seconds"] = round(cached_seconds, 3)
    CACHE_BENCH["dedup_speedup"] = round(speedup, 2)
    CACHE_BENCH["dedup_counters"] = {k: list(v) for k, v in by_extractor.items()}
    assert speedup >= 1.5, f"in-run dedup speedup {speedup:.2f}x below the 1.5x floor"


def test_bench_warm_cache_rerun_skips_every_simulation(tmp_path):
    settings = CacheSettings(directory=str(tmp_path / "store"), scope="bench-disk")

    reset_process_caches()
    started = time.perf_counter()
    cold = _grid(cache=settings)
    cold_seconds = time.perf_counter() - started

    reset_process_caches()  # a fresh run: memory tier gone, disk remains
    started = time.perf_counter()
    warm = _grid(cache=settings)
    warm_seconds = time.perf_counter() - started

    assert render_faults(warm) == render_faults(cold)
    counters = cache_for(settings).counters
    assert counters.misses == 0, "a warm rerun must not simulate anything"
    assert counters.disk_hits == (1 + len(SCHEDULES)) * HOMES

    speedup = cold_seconds / warm_seconds
    CACHE_BENCH["disk_cold_seconds"] = round(cold_seconds, 3)
    CACHE_BENCH["disk_warm_seconds"] = round(warm_seconds, 3)
    CACHE_BENCH["disk_speedup"] = round(speedup, 2)
    assert speedup >= 3.0, f"warm rerun speedup {speedup:.2f}x below the 3.0x floor"


def test_bench_cached_bytes_identical_across_jobs(tmp_path):
    baseline = render_faults(_sweep())

    settings = CacheSettings(directory=str(tmp_path / "store"), scope="bench-jobs")
    reset_process_caches()
    serial = render_faults(_sweep(cache=settings, shards=1))
    reset_process_caches()
    parallel = render_faults(_sweep(cache=settings, shards=SHARDS))

    CACHE_BENCH["jobs_bytes_identical"] = serial == baseline and parallel == baseline
    assert serial == baseline
    assert parallel == baseline


def test_bench_cached_bytes_identical_across_shards(tmp_path):
    kwargs = dict(
        seed=SEED, config_names=("ipv6-only",), fault_names=SCHEDULES[:2], fidelity="flow"
    )
    baseline = render_faults(run_faults_stream(HOMES, shards=1, **kwargs))

    settings = CacheSettings(directory=str(tmp_path / "store"), scope="bench-shards")
    single = render_faults(run_faults_stream(HOMES, shards=1, cache=settings, **kwargs))
    sharded = render_faults(run_faults_stream(HOMES, shards=SHARDS, cache=settings, **kwargs))

    CACHE_BENCH["shards_bytes_identical"] = single == baseline and sharded == baseline
    assert single == baseline
    assert sharded == baseline
