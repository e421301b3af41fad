"""The WAN exposure and adversary reports, pinned byte for byte.

The first two renders are the inputs of ``benchmarks/test_bench_exposure.py``
and ``benchmarks/test_bench_adversary.py`` and must equal their committed
goldens. The last two cover what those goldens miss (an attached fault
schedule, leaked-address replay with the hitlist strategy, pinhole passes,
peer spread, an IPv6-only population, flow fidelity) and are pinned by the
sha256 of their rendered text.
"""

import hashlib
from pathlib import Path

from repro.adversary import WormParams, run_adversary_stream
from repro.exposure import run_exposure_stream
from repro.reports import render_adversary, render_exposure

GOLDENS = Path(__file__).resolve().parents[2] / "benchmarks" / "output"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_exposure_report_matches_bench_golden():
    text = render_exposure(run_exposure_stream(4, seed=1, firewalls=("open", "stateful")))
    assert text + "\n" == (GOLDENS / "exposure_serial.txt").read_text()


def test_adversary_report_matches_bench_golden():
    params = WormParams(strategy="eui64-sweep", scan_rate=2000.0, dt=30.0, horizon=1800.0)
    text = render_adversary(run_adversary_stream(3, seed=1, params=params, firewalls=("open", "stateful")))
    assert text + "\n" == (GOLDENS / "adversary_serial.txt").read_text()


def test_faulted_hitlist_outbreak_is_pinned():
    text = render_adversary(
        run_adversary_stream(
            3,
            seed=4,
            params=WormParams(strategy="hitlist", recovery=600.0, seeds=2),
            scenario="flip50",
            firewalls=("open", "pinhole"),
            fault_name="dns-blackout",
            fidelity="flow",
        )
    )
    assert sha256(text) == "92c4a04487806d3e7a8a9a7ab850e6a26487994db1cae59faa7efad404d28993"


def test_ipv6_only_pinhole_exposure_is_pinned():
    text = render_exposure(
        run_exposure_stream(3, seed=4, config_name="ipv6-only", firewalls=("pinhole", "open"), fidelity="flow")
    )
    assert sha256(text) == "dd66647f3db018c19642f5e012cf7ded940e21cec6eb306a0b22fca5ffcda237"
