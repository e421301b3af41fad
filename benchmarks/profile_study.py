"""Profile a one-configuration study run and print the top cumulative hot spots.

CI runs this after the pipeline benchmark and uploads the report as a per-run
artifact, so every perf PR leaves a flame-level trail: compare the top-30
table between two runs to see where the wall-clock moved.

Usage:
    PYTHONPATH=src python benchmarks/profile_study.py [--top 30] [--seed 77]
        [--config ipv6-only] [--fidelity flow] [--cache DIR | --memory]
        [--output benchmarks/profile_top30.txt]

With ``--memory`` the report is the memory trail instead: the same study runs
under ``tracemalloc``, and the report gives the process's peak RSS and the
top allocation sites, grouped by source line, whose memory the study still
holds when it returns (its captures, their frames and the capture index).
Unlike a ``sys.getsizeof`` census, this counts every allocation, instance
dicts included. Tracing slows the run several-fold and its bookkeeping is
part of the peak RSS, so compare memory reports only with each other.

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
import resource
import sys
import time
import tracemalloc
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


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux and bytes on macOS.
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def _site(frame: tracemalloc.Frame) -> str:
    """``file:line``, from the package root when the file is under ``src/``."""
    path = Path(frame.filename).as_posix()
    _, sep, inside = path.rpartition("/src/")
    return f"{inside if sep else path}:{frame.lineno}"


def profile_memory(config_name: str, seed: int, top: int, fidelity: str = "packet") -> str:
    """What a one-config study still holds when it returns, by allocation site."""
    config = with_fidelity(next(c for c in ALL_CONFIGS if c.name == config_name), fidelity)
    tracemalloc.start()
    try:
        testbed = Testbed(seed=seed, profiles=build_inventory())
        result = run_connectivity_experiment(testbed, config)
        snapshot = tracemalloc.take_snapshot()
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces((tracemalloc.Filter(False, tracemalloc.__file__),))
    stats = snapshot.statistics("lineno")
    held = sum(stat.size for stat in stats)
    frames = len(result.records)
    mib = 1024.0 * 1024.0
    lines = [
        f"one-config memory profile: config={config_name} seed={seed} "
        f"fidelity={fidelity} devices={len(result.functionality)}\n",
        f"captured frames: {frames}; flow records: {len(result.flow_records)}\n",
        f"peak rss: {_peak_rss_mb():.1f} MiB (tracing included)\n",
        f"traced: {held / mib:.1f} MiB held at return in {len(stats)} sites; "
        f"peak {traced_peak / mib:.1f} MiB\n",
        f"held per captured frame: {held / frames if frames else 0.0:.0f} bytes\n",
        "\n",
        f"{'MiB':>8} {'blocks':>9}  site\n",
    ]
    for stat in stats[:top]:
        lines.append(f"{stat.size / mib:8.2f} {stat.count:9d}  {_site(stat.traceback[0])}\n")
    return "".join(lines)


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
    unit = parser.add_mutually_exclusive_group()
    unit.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="profile the cached fleet worker against this study-cache directory",
    )
    unit.add_argument(
        "--memory",
        action="store_true",
        help="report the allocation sites the study still holds when it returns (tracemalloc)",
    )
    parser.add_argument("--output", type=Path, default=None, help="also write the report to this file")
    args = parser.parse_args(argv)

    if args.memory:
        report = profile_memory(args.config, args.seed, args.top, fidelity=args.fidelity)
    elif args.cache is not None:
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
