"""Compare two suite result files run by run: ``python bench/compare.py A.json B.json``.

A is the parent (or first seed set), B the change. One row per (workload,
end-to-end metric of ``BENCHMARK.json``) gives each side's median and
quartiles, the metric's bound and a verdict:

- ``improved``: B wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than A's quartile distance;
- ``worse``: B's median is worse than A's by more than the bound (and by
  more than the metric's absolute floor, where it has one);
- ``unresolved``: not worse, but the spread of either side is wider than the
  bound and B does not beat every A run with every run of its own;
- ``unchanged``: otherwise.

Suites run in turns (parent, change, change, parent, ...) with
``run.py --append --out`` collect each side into one file. Runs pair up in
the order they ran. ``failed_frac`` (failed over
attempted, pooled over each side's runs) has a bound of zero: any extra
failure is worse. Exits 1 if any row is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from stats import quartiles, spread  # noqa: E402

# Set-up takes about 0.3 s; a change under 0.05 s drowns in process start-up noise.
ABSOLUTE_FLOORS = {"setup_s": 0.05}


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float, floor: float = 0.0) -> str:
    sign = 1.0 if better == "lower" else -1.0

    def gain(old: float, new: float) -> float:
        return sign * (old - new)  # > 0 when new reads better than old

    a_q1, a_median, a_q3 = quartiles(a)
    b_median = statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for old, new in pairs if gain(old, new) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain(a_median, b_median) > a_q3 - a_q1:
        return "improved"
    worse_by = -gain(a_median, b_median)
    if worse_by > bound * abs(a_median) and worse_by > floor:
        return "worse"
    if max(spread(a), spread(b)) > bound and not all(gain(old, new) > 0 for old in a for new in b):
        return "unresolved"
    return "unchanged"


def metric_table() -> dict[str, dict]:
    """Every bounded end-to-end metric with its unit, direction, bound and floor."""
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = {metric["name"]: dict(metric) for metric in benchmark["end_to_end"]}
    table["failed_frac"] = {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}
    for name, floor in ABSOLUTE_FLOORS.items():
        table[name]["floor"] = floor
    return table


def series(runs: list[dict], workload: str) -> dict[str, list[float]]:
    """metric -> values, in run order, over the untraced runs of one workload.

    ``failed_frac`` is pooled over the runs, so one failing run counts even
    when the median run has none."""
    out: dict[str, list[float]] = {}
    failed = attempted = 0
    for run in runs:
        if run["workload"] != workload or run["trace"]:
            continue
        for name, (value, _unit) in run["metrics"].items():
            out.setdefault(name, []).append(value)
        failed += run["failed"]
        attempted += run["attempted"]
    if attempted:
        out["failed_frac"] = [failed / attempted]
    return out


def compare(a_runs: list[dict], b_runs: list[dict]) -> list[dict]:
    table = metric_table()
    rows = []
    workloads = list(dict.fromkeys(run["workload"] for run in a_runs + b_runs))
    for workload in workloads:
        a, b = series(a_runs, workload), series(b_runs, workload)
        for name in [metric for metric in table if metric in a and metric in b]:
            metric = table[name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": quartiles(a[name]),
                    "b": quartiles(b[name]),
                    "n": (len(a[name]), len(b[name])),
                    "bound": metric["bound"],
                    "verdict": verdict(a[name], b[name], metric["better"], metric["bound"], metric.get("floor", 0.0)),
                }
            )
    return rows


def load_runs(path: str) -> list[dict]:
    """The runs of one side's suite file, in the order they ran."""
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]))
    print("workload metric unit A:median[q1,q3] B:median[q1,q3] n bound verdict")
    for row in rows:
        (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = row["a"], row["b"]
        print(
            f"{row['workload']} {row['metric']} {row['unit']} "
            f"{a_med:.4g}[{a_q1:.4g},{a_q3:.4g}] {b_med:.4g}[{b_q1:.4g},{b_q3:.4g}] "
            f"{row['n'][0]}/{row['n'][1]} {row['bound']:g} {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
