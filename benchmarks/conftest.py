"""Shared fixtures for the benchmark harness.

The full study (the expensive part — six connectivity experiments on 93
devices plus both active experiments) runs once per benchmark session; each
benchmark then times the analysis/report stage for its table or figure and
writes the rendered output under ``benchmarks/output/`` so the regenerated
tables can be diffed against the paper (see EXPERIMENTS.md).

The session also records wall-clock timings for the three pipeline stages
(study run, capture-index build, table render) and emits them to
``benchmarks/BENCH_pipeline.json`` together with the pre-PR baseline, so the
decode-once pipeline's speedup is tracked as a first-class artifact (see
``test_bench_pipeline.py::test_bench_pipeline_end_to_end``).
"""

import gc
import json
import time
from pathlib import Path

import pytest

from repro.core.analysis import StudyAnalysis
from repro.testbed.study import run_full_study

OUTPUT_DIR = Path(__file__).parent / "output"
BENCH_PIPELINE_PATH = Path(__file__).parent / "BENCH_pipeline.json"

# Wall-clock for the pre-decode-once pipeline (commit 62c90c4), measured on
# the same machine back-to-back with the optimized pipeline. The frame bytes
# were parsed from scratch at every receiving NIC and once more per capture
# consumer, and `CaptureIndex._record_flow` re-encoded every payload to learn
# its length; `StudyAnalysis.indexes` then re-parsed all six captures a
# second time (the 9.2 s index stage the shared Study indexes eliminate).
PRE_PR_BASELINE = {
    "study_seconds": 76.28,
    "index_seconds": 9.23,
    "tables_seconds": 0.27,
    "end_to_end_seconds": 85.78,
}

# Wall-clock of `_calibration_workload` on the reference machine when it is
# uncontended — the recorded baseline's machine-speed anchor. Timing-based
# speedup gates are meaningless across machines (or on a noisy shared core)
# without normalization, so the end-to-end benchmark scales PRE_PR_BASELINE
# by (calibration now / this constant) before asserting.
CALIBRATION_BASELINE_SECONDS = 0.17

# The decode-once pipeline's committed numbers (BENCH_pipeline.json as of the
# decode-once PR), anchored by the calibration reading taken in the same
# session. The emit-once wire path gates `study_seconds` against this —
# a separate, tighter baseline than PRE_PR_BASELINE because the study stage
# is where the transmit-side work lives.
EMIT_ONCE_BASELINE = {
    "study_seconds": 35.955,
    "calibration_seconds": 0.174,
}

# Stage timings observed this session, keyed like PRE_PR_BASELINE.
PIPELINE_TIMINGS: dict = {}


def _calibration_workload() -> int:
    # A fixed, deterministic mix of bytes slicing, dict probes and int work —
    # the same operation classes the pipeline spends its time on.
    table: dict = {}
    acc = 0
    data = bytes(range(256)) * 65
    for i in range(300_000):
        j = i % 16000
        key = data[j : j + 16]
        table[key] = table.get(key, 0) + 1
        acc += int.from_bytes(key[:4], "big") % 65535
    return acc


def calibration_seconds(samples: int = 2) -> float:
    """Mean wall-clock of the calibration workload over ``samples`` runs."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        _calibration_workload()
        times.append(time.perf_counter() - started)
    return sum(times) / len(times)


@pytest.fixture(scope="session")
def study():
    # Exclude the test harness's resident module graph from the collector:
    # the study churns millions of objects, and every gen-2 pass would
    # otherwise re-scan pytest/hypothesis internals the pipeline never touches
    # (~12% of study wall-clock; the baseline was measured without a harness).
    gc.freeze()
    # `run_full_study` defers full collections until it returns (DESIGN.md §10).
    # Calibration brackets the expensive stage so the samples see the same
    # machine conditions (CPU contention, frequency scaling) the study saw.
    calibration_before = calibration_seconds()
    started = time.perf_counter()
    result = run_full_study(seed=42)
    PIPELINE_TIMINGS["study_seconds"] = time.perf_counter() - started
    PIPELINE_TIMINGS["calibration_seconds"] = (calibration_before + calibration_seconds()) / 2
    gc.collect()  # the deferred full sweep: reclaim actual study garbage
    # The surviving captures and indexes live until the session ends; freeze
    # them so no later timed stage (index build, table render, per-table
    # benchmarks) pays a gen-2 rescan of six experiments' worth of frames.
    gc.freeze()
    # Wire counters for the run: frames transmitted (each one its sender's
    # structured object, never encoded on the wire), raw frames that needed
    # an Ethernet.decode parse, and the fraction of transmissions that carried
    # the sender's own object (1.0 on the structured wire).
    frames = result.testbed.link.frames
    PIPELINE_TIMINGS["encode_count"] = frames.encode_count
    PIPELINE_TIMINGS["decode_count"] = frames.decode_count
    PIPELINE_TIMINGS["cache_prime_rate"] = frames.prime_rate
    return result


@pytest.fixture(scope="session")
def flow_study():
    """The same seed-42 study in ``flow`` fidelity, timed under the same gc
    discipline and calibration bracketing as the packet-mode ``study``
    fixture, so the two stage timings are directly comparable. The hybrid
    fidelity gate (``test_bench_flow_fidelity_speedup``) reads both."""
    gc.freeze()
    calibration_before = calibration_seconds()
    started = time.perf_counter()
    result = run_full_study(seed=42, fidelity="flow")
    PIPELINE_TIMINGS["flow_study_seconds"] = time.perf_counter() - started
    PIPELINE_TIMINGS["flow_calibration_seconds"] = (calibration_before + calibration_seconds()) / 2
    gc.collect()
    gc.freeze()
    PIPELINE_TIMINGS["flow_records_elided"] = sum(
        len(experiment.flow_records) for experiment in result.experiments.values()
    )
    return result


@pytest.fixture(scope="session")
def analysis(study):
    analysis = StudyAnalysis(study)
    started = time.perf_counter()
    analysis.indexes  # shared with the study's own indexes — no second parse
    PIPELINE_TIMINGS["index_seconds"] = time.perf_counter() - started
    return analysis


@pytest.fixture(scope="session")
def record():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> str:
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        return text

    return _record


def pytest_sessionfinish(session, exitstatus):
    """Emit BENCH_pipeline.json for whatever pipeline stages this run timed."""
    if "study_seconds" not in PIPELINE_TIMINGS:
        return
    # Study-cache economics for the whole benchmark session: how many home
    # studies the content-addressed cache absorbed (memory dedup + disk)
    # versus actually simulated, counted by the cache itself.
    from repro.cache import process_counters

    PIPELINE_TIMINGS.update(process_counters())
    payload = {key: round(value, 3) for key, value in PIPELINE_TIMINGS.items()}
    stages = ("study_seconds", "index_seconds", "tables_seconds")
    if all(key in PIPELINE_TIMINGS for key in stages):
        end_to_end = sum(PIPELINE_TIMINGS[key] for key in stages)
        payload["end_to_end_seconds"] = round(end_to_end, 3)
        payload["baseline"] = PRE_PR_BASELINE
        payload["calibration_baseline_seconds"] = CALIBRATION_BASELINE_SECONDS
        payload["raw_speedup"] = round(PRE_PR_BASELINE["end_to_end_seconds"] / end_to_end, 2)
    BENCH_PIPELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
