"""Benchmarks for the fault fleet: one shard vs four, wall-clock.

Each home×config cell runs a paired clean baseline plus one faulted study
per preset, so a small grid is already a meaningful workload. Times a
4-home grid at ``--shards 1`` and ``--shards 4`` (``--jobs`` is an alias)
and asserts the two render byte-identical degradation tables (the
determinism contract).
"""

from repro.faults import run_faults_stream
from repro.reports import render_faults

HOMES = 4
SEED = 1
CONFIGS = ("dual-stack",)
FAULTS = ("dns-blackout", "uplink-flap")


def _render(shards: int) -> str:
    return render_faults(
        run_faults_stream(HOMES, seed=SEED, config_names=CONFIGS, fault_names=FAULTS, shards=shards)
    )


def test_bench_faults_serial(benchmark, record):
    text = benchmark.pedantic(lambda: _render(1), rounds=3, iterations=1)
    record("faults_serial", text)
    assert f"Fault degradation: {HOMES} homes" in text


def test_bench_faults_parallel(benchmark, record):
    text = benchmark.pedantic(lambda: _render(4), rounds=3, iterations=1)
    record("faults_parallel", text)
    assert f"Fault degradation: {HOMES} homes" in text


def test_faults_parallel_matches_serial_byte_for_byte():
    assert _render(1) == _render(4)
