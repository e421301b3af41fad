"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

One run (the form a harness calls; the last stdout line is a JSON object)::

    python bench/run.py --workload study-flow --seed 42 --seconds 30 --trace 0

The suite (default seeds; three repeats per workload, interleaved
round-robin, then one traced run per workload)::

    python bench/run.py [--seed-set default|held-out] [--repeats 3] [--out FILE [--append]]

Every measured run is a fresh child process, one process at a time, with
``PYTHONHASHSEED=0``, default garbage collection and ``shards=1``. It runs
passes of its workload for ``--seconds`` and reports the median pass.
``setup_s`` is the median wall time of seven child processes that only
start the interpreter and import the program. A run with ``--trace 1``
runs one untraced pass and then one traced pass, each in its own child, and
reports the per-layer metrics of the traced one with the tracing overhead.

Every run checks the rendered report: against the digest recorded in
``bench/workloads.json`` when its seed has one, and against the invariants
each workload asserts otherwise. On any mismatch it prints no metrics and
exits 1. This file uses the standard library only; the children import the
program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "results" / "runs"
SETUP_PROBES = 7
MIN_COVERAGE = 0.95
# A run must end within 180 s; the children get what is left of this.
RUN_BUDGET_S = 170.0

sys.path.insert(0, str(BENCH))
from stats import quartiles  # noqa: E402


class BenchError(Exception):
    """A run that cannot report metrics: a failed child or a wrong output."""


def load_spec() -> tuple[dict, dict]:
    """``BENCHMARK.json`` and ``bench/workloads.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        workloads = json.load(fh)
    return benchmark, workloads


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    command = [sys.executable, str(BENCH / "child.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start {' '.join(args[:2])}")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"child {' '.join(args[:2])} ran past the run budget") from exc
    if done.returncode != 0:
        raise BenchError(f"child {' '.join(args[:2])} exited with {done.returncode}")
    return done


def _setup_samples(probes: int, deadline: float) -> list[float]:
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        _child(["probe"], deadline)
        samples.append(time.perf_counter() - started)
    return samples


def _measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    RUNS.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=RUNS)
    try:
        done = _child(["measure", workload, str(seed), str(seconds), str(int(trace)), scratch], deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {workload} printed no result")
    return json.loads(lines[-1])


def check_output(result: dict, expected: dict) -> list[str]:
    """Problems with one child's output: its own findings plus the digest gate."""
    problems = list(result["problems"])
    digest = expected["digests"].get(str(result["seed"]))
    if digest is not None and digest != result["digest"]:
        problems.append(f"report digest {result['digest'][:16]}... != recorded {digest[:16]}...")
    for span in result.get("dead_spans", []):
        problems.append(f"declared span {span} never fired")
    coverage = result.get("layers", {}).get("trace.coverage")
    if coverage is not None and coverage[0] < MIN_COVERAGE:
        problems.append(f"trace.coverage {coverage[0]:.3f} < {MIN_COVERAGE}")
    return problems


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; raises BenchError when it cannot report."""
    benchmark, spec = load_spec()
    if workload not in spec:
        raise BenchError(f"unknown workload {workload!r}")
    expected = spec[workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        reference = _measure(workload, seed, 0.0, False, deadline)
        result = _measure(workload, seed, 0.0, True, deadline)
        problems = check_output(reference, expected) + check_output(result, expected)
        traced_wall = result["layers"]["trace.wall_s"][0]
        untraced_wall = reference["metrics"]["wall_s"][0]
        result["layers"]["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
        wanted = benchmark["per_layer"]
        measured = result["layers"]
    else:
        # Probes on both sides of the measured pass, so one slow spell of the
        # machine cannot move the median.
        setup = _setup_samples(SETUP_PROBES // 2, deadline)
        result = _measure(workload, seed, seconds, False, deadline)
        setup += _setup_samples(SETUP_PROBES - SETUP_PROBES // 2, deadline)
        problems = check_output(result, expected)
        result["metrics"]["setup_s"] = (quartiles(setup)[1], "s")
        wanted = benchmark["end_to_end"]
        measured = result["metrics"]
    result["problems"] = problems
    result["correct"] = not problems
    reported = {}
    for metric in wanted:
        value, unit = measured[metric["name"]]
        if unit != metric["unit"] or not math.isfinite(value):
            raise BenchError(f"{metric['name']} measured {value} {unit}, declared in {metric['unit']}")
        reported[metric["name"]] = {"value": value, "unit": unit}
    result["reported"] = reported
    return result


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _print_metrics(workload: str, metrics: dict) -> None:
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{workload} {name} {value:.6g} {unit}")


def single(args: argparse.Namespace) -> int:
    try:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    _write(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", result)
    summary = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"]}
    if not result["correct"]:
        for problem in result["problems"]:
            print(f"bench: {args.workload}: {problem}", file=sys.stderr)
        print(json.dumps({**summary, "metrics": {}}))
        return 1
    _print_metrics(args.workload, result["layers"] if args.trace else result["metrics"])
    print(json.dumps({**summary, "metrics": result["reported"]}))
    return 0


def suite(args: argparse.Namespace) -> int:
    """Round-robin repeats of every workload, then one traced run each."""
    benchmark, spec = load_spec()
    names = [workload["name"] for workload in benchmark["workloads"]]
    seeds = {name: spec[name]["seeds"][args.seed_set] for name in names}
    runs, failures = [], 0
    plan = [(repeat, name, False) for repeat in range(args.repeats) for name in names]
    plan += [(0, name, True) for name in names] if args.traced else []
    for repeat, name, trace in plan:
        print(f"bench: {name} seed {seeds[name]} repeat {repeat} trace {int(trace)}", file=sys.stderr)
        try:
            result = run_once(name, seeds[name], args.seconds, trace)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            failures += 1
            continue
        result.pop("records", None)
        result["repeat"] = repeat
        runs.append(result)
        if not result["correct"]:
            failures += 1
            for problem in result["problems"]:
                print(f"bench: {name}: {problem}", file=sys.stderr)
    runs = [run for run in runs if run["correct"]]
    print("workload metric median unit q1 q3 n")
    for name in names:
        for field, trace in (("metrics", 0), ("layers", 1)):
            mine = [run[field] for run in runs if run["workload"] == name and run["trace"] == trace]
            for metric in sorted(mine[0]) if mine else ():
                values = [run[metric][0] for run in mine]
                q1, median, q3 = quartiles(values)
                print(f"{name} {metric} {median:.6g} {mine[0][metric][1]} {q1:.6g} {q3:.6g} {len(values)}")
    if args.out is not None:
        if args.append and args.out.exists():
            runs = json.loads(args.out.read_text(encoding="utf-8"))["runs"] + runs
        _write(args.out, {"seed_set": args.seed_set, "seconds": args.seconds, "runs": runs})
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload once (harness form)")
    parser.add_argument("--seed", type=int, help="input seed of the single run")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-set", choices=("default", "held-out"), default="default")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--no-trace", dest="traced", action="store_false", help="skip the traced runs")
    parser.add_argument("--out", type=Path, default=None, help="write the suite's runs to this JSON file")
    parser.add_argument("--append", action="store_true", help="add the runs to those already in --out")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception: subprocess.run then kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec()[0]["run_seconds"])
    if args.workload is None:
        return suite(args)
    if args.seed is None:
        parser.error("--workload needs --seed")
    return single(args)


if __name__ == "__main__":
    raise SystemExit(main())
