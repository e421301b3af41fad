"""Benchmarks for the adversary pipeline: one shard vs four, wall-clock.

Times a 3-home x 2-firewall-mode susceptibility sweep plus worm outbreak at
``--shards 1`` and ``--shards 4`` (``--jobs`` is an alias) and asserts both
render byte-identical time-to-compromise tables (phase 1 shards; the
epidemic loop is a serial deterministic fold over the sorted summaries).
"""

from repro.adversary import WormParams, run_adversary_stream
from repro.reports import render_adversary

HOMES = 3
SEED = 1
FIREWALLS = ("open", "stateful")
PARAMS = WormParams(strategy="eui64-sweep", scan_rate=2000.0, dt=30.0, horizon=1800.0)


def _render(shards: int) -> str:
    return render_adversary(
        run_adversary_stream(HOMES, seed=SEED, params=PARAMS, firewalls=FIREWALLS, shards=shards)
    )


def test_bench_adversary_serial(benchmark, record):
    text = benchmark.pedantic(lambda: _render(1), rounds=3, iterations=1)
    record("adversary_serial", text)
    assert f"{HOMES * len(FIREWALLS)}/{HOMES * len(FIREWALLS)} cells" in text


def test_bench_adversary_parallel(benchmark, record):
    text = benchmark.pedantic(lambda: _render(4), rounds=3, iterations=1)
    record("adversary_parallel", text)
    assert f"{HOMES * len(FIREWALLS)}/{HOMES * len(FIREWALLS)} cells" in text


def test_adversary_parallel_matches_serial_byte_for_byte():
    assert _render(1) == _render(4)
