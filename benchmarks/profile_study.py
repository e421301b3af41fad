"""Profile a one-configuration study run and print the top cumulative hot spots.

CI runs this after the pipeline benchmark and uploads the report as a per-run
artifact, so every perf PR leaves a flame-level trail: compare the top-30
table between two runs to see where the wall-clock moved.

Usage:
    PYTHONPATH=src python benchmarks/profile_study.py [--top 30] [--seed 77]
        [--config ipv6-only] [--fidelity flow] [--cache DIR]
        [--output benchmarks/profile_top30.txt]

With ``--cache DIR`` the profiled unit is the cached fleet worker
(``repro.fleet.runner.simulate_home``) instead of a bare connectivity
experiment: a first run profiles the cold miss path, a re-run against the
same directory profiles the warm hit path (artifact load, no simulation).
Every report's header ends with the run's full (generation-2) garbage
collections and the run's study-cache counters. cProfile charges the
collector to whichever function allocated, so only that line shows its cost.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from repro.cache import process_counters
from repro.devices import build_inventory
from repro.stack.config import ALL_CONFIGS, FIDELITY_MODES, with_fidelity
from repro.testbed import Testbed, run_connectivity_experiment


def _counters_line() -> str:
    counters = process_counters()
    return (
        f"study cache: hits={counters['study_cache_hits']} "
        f"(disk {counters['study_cache_disk_hits']}) "
        f"misses={counters['study_cache_misses']} "
        f"deduped={counters['studies_deduped']}\n"
    )


@contextmanager
def full_collections():
    """Count the generation-2 collections, and their seconds, while the block runs."""
    tally = {"count": 0, "seconds": 0.0, "started": 0.0}

    def hook(phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            tally["started"] = time.perf_counter()
        else:
            tally["count"] += 1
            tally["seconds"] += time.perf_counter() - tally["started"]

    gc.callbacks.append(hook)
    try:
        yield tally
    finally:
        gc.callbacks.remove(hook)


def _collections_line(tally: dict) -> str:
    return f"full gc collections: {tally['count']} taking {tally['seconds']:.3f}s\n"


def profile_once(config_name: str, seed: int, top: int, fidelity: str = "packet") -> str:
    config = next(c for c in ALL_CONFIGS if c.name == config_name)
    config = with_fidelity(config, fidelity)
    profiler = cProfile.Profile()
    with full_collections() as collections:
        profiler.enable()
        testbed = Testbed(seed=seed, profiles=build_inventory())
        result = run_connectivity_experiment(testbed, config)
        profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    frames = testbed.link.frames
    header = (
        f"one-config study profile: config={config_name} seed={seed} "
        f"fidelity={fidelity} devices={len(result.functionality)}\n"
        f"wire: encode_count={frames.encode_count} "
        f"decode_count={frames.decode_count} "
        f"prime_rate={frames.prime_rate:.3f} errors={frames.decode_errors}\n"
        f"flow records elided from the wire: {len(result.flow_records)}\n"
        + _collections_line(collections)
        + _counters_line()
        + "\n"
    )
    return header + stream.getvalue()


def profile_cached_home(
    config_name: str, seed: int, top: int, fidelity: str, cache_dir: str
) -> str:
    """Profile one cached fleet-worker run against a persistent store."""
    from repro.cache import CacheSettings, activated
    from repro.fleet.runner import simulate_home
    from repro.fleet.scenario import HomeSpec

    devices = tuple(profile.name for profile in build_inventory()[:12])
    spec = HomeSpec(
        home_id=0, sim_seed=seed, config_name=config_name, device_names=devices, fidelity=fidelity
    )
    profiler = cProfile.Profile()
    with activated(CacheSettings(directory=cache_dir)), full_collections() as collections:
        profiler.enable()
        summary = simulate_home(spec)
        profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    header = (
        f"cached home-study profile: config={config_name} seed={seed} "
        f"fidelity={fidelity} devices={len(devices)} cache={cache_dir}\n"
        f"functional devices: {len(summary.functional)}\n"
        + _collections_line(collections)
        + _counters_line()
        + "\n"
    )
    return header + stream.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=30, help="rows of the cumulative table to keep")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--config", default="ipv6-only", help="connectivity configuration name")
    parser.add_argument(
        "--fidelity",
        default="packet",
        choices=list(FIDELITY_MODES),
        help="simulation fidelity for the profiled run",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="profile the cached fleet worker against this study-cache directory",
    )
    parser.add_argument("--output", type=Path, default=None, help="also write the report to this file")
    args = parser.parse_args(argv)

    if args.cache is not None:
        report = profile_cached_home(
            args.config, args.seed, args.top, fidelity=args.fidelity, cache_dir=args.cache
        )
    else:
        report = profile_once(args.config, args.seed, args.top, fidelity=args.fidelity)
    print(report)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
