"""Benchmarks for the fleet engine: one shard vs four, wall-clock.

Times an 8-home fleet at ``--shards 1`` and ``--shards 4`` (``--jobs`` is an
alias) so the parallel speedup stays visible in the perf trajectory, and
asserts the two render byte-identical fleet summaries (the determinism
contract).
"""

from repro.fleet import get_scenario, run_fleet_stream
from repro.reports import render_fleet_summary

HOMES = 8
SEED = 1


def _render(shards: int) -> str:
    return render_fleet_summary(
        run_fleet_stream(HOMES, seed=SEED, scenario=get_scenario("flip50"), shards=shards)
    )


def test_bench_fleet_serial(benchmark, record):
    text = benchmark.pedantic(lambda: _render(1), rounds=3, iterations=1)
    record("fleet_serial", text)
    assert f"{HOMES}/{HOMES} homes simulated" in text


def test_bench_fleet_parallel(benchmark, record):
    text = benchmark.pedantic(lambda: _render(4), rounds=3, iterations=1)
    record("fleet_parallel", text)
    assert f"{HOMES}/{HOMES} homes simulated" in text


def test_fleet_parallel_matches_serial_byte_for_byte():
    assert _render(1) == _render(4)
