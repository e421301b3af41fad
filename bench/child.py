"""Child-process side of the benchmark; ``run.py`` starts it, one at a time.

    python bench/child.py probe
        Import the program, then exit. The parent times the whole process:
        this is one set-up sample. The workloads build their inputs inside
        the program's own entry points, so set-up is start-up plus imports.

    python bench/child.py measure WORKLOAD SEED SECONDS TRACE SCRATCH
        Run passes of the workload in a closed loop and print one JSON
        object on the last line of stdout. A pass starts only while the
        passes so far predict it ends within SECONDS; the first always runs.
        With TRACE=1 every layer span is installed and exactly one pass runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import layers  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux and bytes on macOS.
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def measure(name: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    workload = WORKLOADS[name]
    tracer, patches = Tracer(), Patches()
    if trace:
        layers.install(tracer, patches)
    if workload.home_target is not None:
        # Installed last, so the home span is outermost and every layer span
        # inside it keeps its own self time.
        patches.wrap(workload.home_target, lambda fn: tracer.span("bench.home", fn, record=True))

    digests: set[str] = set()
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    try:
        while True:
            with tracer.region("bench.pass"):
                outcome = workload.run_pass(seed, tracer, scratch)
            walls = tracer.durations("bench.pass")
            digests.add(hashlib.sha256(outcome.report.encode()).hexdigest())
            attempted += outcome.attempted
            failed += outcome.failed
            problems.extend(outcome.problems)
            elapsed = time.perf_counter() - started
            if trace or elapsed + statistics.median(walls) > seconds:
                break
    finally:
        patches.restore()

    if len(digests) != 1:
        problems.append(f"{len(walls)} passes rendered {len(digests)} different reports")
    metrics = {"wall_s": (statistics.median(walls), "s"), "peak_rss_mb": (_peak_rss_mb(), "MiB")}
    metrics.update(workload.extras(tracer, walls))
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(walls),
        "digest": sorted(digests)[0],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }
    if trace:
        result["layers"] = layers.layer_metrics(tracer, walls[0])
        result["dead_spans"] = layers.dead_spans(tracer, workload.kind)
        result["records"] = tracer.records
    return result


def main(argv: list[str]) -> int:
    if argv == ["probe"]:
        return 0
    if len(argv) != 6 or argv[0] != "measure" or argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: child.py probe | measure WORKLOAD SEED SECONDS TRACE SCRATCH (got {argv})")
    result = measure(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
