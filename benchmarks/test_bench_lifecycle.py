"""Benchmarks for the lifecycle engine: a small fleet across epochs.

Every (home, epoch) cell is one full home study, so even a 2-home,
3-epoch timeline is six simulations plus the timeline planner. Times one
shard and four (``--jobs`` is an alias) and asserts they render
byte-identical trajectory tables (the determinism contract the CI smoke
also checks end-to-end through the CLI).
"""

from repro.lifecycle import LifecycleParams, run_lifecycle_stream
from repro.reports import render_lifecycle

HOMES = 2
SEED = 1
PARAMS = LifecycleParams(epochs=3, wave="flash-cut")


def _render(shards: int) -> str:
    return render_lifecycle(run_lifecycle_stream(HOMES, seed=SEED, params=PARAMS, shards=shards))


def test_bench_lifecycle_serial(benchmark, record):
    text = benchmark.pedantic(lambda: _render(1), rounds=3, iterations=1)
    record("lifecycle_serial", text)
    assert f"Lifecycle (flash-cut, {HOMES} homes x {PARAMS.epochs} epochs)" in text


def test_bench_lifecycle_parallel(benchmark, record):
    text = benchmark.pedantic(lambda: _render(4), rounds=3, iterations=1)
    record("lifecycle_parallel", text)
    assert f"Lifecycle (flash-cut, {HOMES} homes x {PARAMS.epochs} epochs)" in text


def test_lifecycle_parallel_matches_serial_byte_for_byte():
    assert _render(1) == _render(4)
