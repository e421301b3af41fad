"""Fast checks of the benchmark harness itself; no simulation runs.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import types
from pathlib import Path

import pytest

import compare
import layers
import run
from stats import p90
from tracer import Patches, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_spans_adds_up_to_the_outer_wall():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.span("leaf", lambda: clock.advance(2))

    def body():
        clock.advance(1)
        leaf()
        clock.advance(3)
        return True

    middle = tracer.span("middle", body, record=True, hits="middle.hits")
    with tracer.region("outer"):
        clock.advance(5)
        middle()
        leaf()

    assert tracer.self_s == {"leaf": 4.0, "middle": 4.0, "outer": 5.0}
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert tracer.counts == {"middle.hits": 1}
    assert sum(tracer.self_s.values()) == tracer.durations("outer")[0] == 13.0
    # Aggregate spans leave no records; recorded ones point at their parent.
    assert [(name, parent, start, end, own) for name, parent, start, end, own in tracer.records] == [
        ("outer", None, 0.0, 13.0, 5.0),
        ("middle", 0, 5.0, 11.0, 4.0),
    ]
    assert tracer.durations("middle", "outer") == [6.0]
    assert tracer.durations("middle", "elsewhere") == []


def test_a_span_that_raises_still_closes():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        with tracer.region("outer"):
            tracer.span("boom", boom)()
    assert tracer.self_s == {"boom": 1.0, "outer": 0.0}
    assert tracer.records[0][3] == 1.0


def test_patches_wrap_where_looked_up_and_restore():
    module = types.ModuleType("toy")
    module.double = lambda value: value * 2
    original = module.double
    tracer, patches = Tracer(), Patches()
    sys.modules["toy"] = module
    try:
        patches.wrap("toy:double", lambda fn: tracer.counter("toy.calls", fn))
        assert module.double(3) == 6
        assert tracer.counts == {"toy.calls": 1}
        with pytest.raises(AttributeError):
            patches.wrap("toy:missing", lambda fn: fn)
        patches.restore()
        assert module.double is original
    finally:
        del sys.modules["toy"]


def test_p90_needs_one_hundred_samples():
    assert p90([float(value) for value in range(99)]) is None
    assert p90([float(value) for value in range(100)]) == pytest.approx(89.9)


def test_every_metric_name_is_well_formed_and_produced():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [metric["name"] for metric in benchmark["end_to_end"] + benchmark["per_layer"]]
    declared += ["home_p50_s", "home_p90_s", "cold_s", "warm_s"]  # reported by one workload each
    produced = set(layers.layer_metrics(Tracer(), 1.0)) | {"trace.overhead_frac"}
    for name in declared + sorted(produced):
        assert METRIC_NAME.match(name), name
    assert len(declared) == len(set(declared))
    assert {metric["name"] for metric in benchmark["per_layer"]} <= produced


@pytest.mark.parametrize(
    "a, b, better, bound, floor, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [9.0, 9.1, 8.9, 9.0], "lower", 0.05, 0.0, "improved"),
        ([10.0, 10.1, 9.9, 10.0], [10.1, 10.0, 10.0, 9.9], "lower", 0.05, 0.0, "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [11.0, 11.2, 10.9, 11.1], "lower", 0.05, 0.0, "worse"),
        ([10.0, 14.0, 7.0, 10.0], [10.5, 13.0, 8.0, 10.2], "lower", 0.05, 0.0, "unresolved"),
        ([5.0, 5.1, 4.9], [4.0, 4.1, 3.9], "higher", 0.05, 0.0, "worse"),
        ([0.30, 0.31, 0.30], [0.34, 0.35, 0.34], "lower", 0.1, 0.05, "unchanged"),
        ([0.0], [0.01], "lower", 0.0, 0.0, "worse"),
    ],
)
def test_compare_verdicts(a, b, better, bound, floor, expected):
    assert compare.verdict(a, b, better, bound, floor) == expected


def test_compare_rows_cover_the_bounded_metrics_in_both_files():
    def runs(scale: float, failed: int) -> list[dict]:
        metrics = {"wall_s": [10.0 * scale, "s"], "setup_s": [0.3, "s"], "home_p50_s": [0.12 / scale, "s"]}
        return [
            {"workload": "fleet-flow", "trace": 0, "metrics": metrics, "failed": failed, "attempted": 160}
            for _ in range(3)
        ]

    rows = compare.compare(runs(1.0, 0), runs(1.5, 1))
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"setup_s": "unchanged", "wall_s": "worse", "failed_frac": "worse"}


def test_digest_gate_rejects_a_tampered_digest():
    spec = json.loads((BENCH / "workloads.json").read_text())
    expected = spec["study-flow"]
    recorded = expected["digests"]["42"]
    result = {"seed": 42, "digest": recorded, "problems": []}
    assert run.check_output(result, expected) == []
    tampered = dict(result, digest=hashlib.sha256(b"tampered").hexdigest())
    assert any("digest" in problem for problem in run.check_output(tampered, expected))
    # A seed with no recorded digest is checked by the workload's invariants only.
    assert run.check_output(dict(tampered, seed=123456), expected) == []


def test_traced_run_fails_on_dead_spans_and_low_coverage():
    result = {
        "seed": 123456,
        "digest": "0" * 64,
        "problems": [],
        "dead_spans": ["cache.fingerprint"],
        "layers": {"trace.coverage": [0.5, "ratio"]},
    }
    problems = run.check_output(result, {"digests": {}})
    assert any("cache.fingerprint" in problem for problem in problems)
    assert any("coverage" in problem for problem in problems)


def test_recorded_study_digests_are_the_committed_goldens():
    from workloads import STUDY_SECTIONS

    goldens = b"".join((ROOT / "benchmarks" / "output" / f"{name}.txt").read_bytes() for name in STUDY_SECTIONS)
    spec = json.loads((BENCH / "workloads.json").read_text())
    for workload in ("study-flow", "study-packet"):
        digests = spec[workload]["digests"]
        assert "42" in digests
        assert set(digests.values()) == {hashlib.sha256(goldens).hexdigest()}
