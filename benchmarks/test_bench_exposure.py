"""Benchmarks for the WAN exposure sweep: one shard vs four, wall-clock.

Times a 4-home x 2-firewall-mode exposure sweep at ``--shards 1`` and
``--shards 4`` (``--jobs`` is an alias) and asserts both render
byte-identical population exposure tables (the determinism contract that
lets the sweep parallelize).
"""

from repro.exposure import run_exposure_stream
from repro.reports import render_exposure

HOMES = 4
SEED = 1
FIREWALLS = ("open", "stateful")


def _render(shards: int) -> str:
    return render_exposure(run_exposure_stream(HOMES, seed=SEED, firewalls=FIREWALLS, shards=shards))


def test_bench_exposure_serial(benchmark, record):
    text = benchmark.pedantic(lambda: _render(1), rounds=3, iterations=1)
    record("exposure_serial", text)
    assert f"{HOMES * len(FIREWALLS)}/{HOMES * len(FIREWALLS)} home-scans" in text


def test_bench_exposure_parallel(benchmark, record):
    text = benchmark.pedantic(lambda: _render(4), rounds=3, iterations=1)
    record("exposure_parallel", text)
    assert f"{HOMES * len(FIREWALLS)}/{HOMES * len(FIREWALLS)} home-scans" in text


def test_exposure_parallel_matches_serial_byte_for_byte():
    assert _render(1) == _render(4)
