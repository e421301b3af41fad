"""The rendered tables and figures equal the committed goldens, byte for byte.

``benchmarks/output/`` holds what the benchmark suite renders from
``run_full_study(seed=42)``, the same study the session fixture runs, so
these renders must match those files exactly: a change that moves any
report byte fails here, in tier-1. The study's exported captures are pinned
the same way, by sha256.
"""

import hashlib
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import reports
from repro.net.pcap import PcapWriter

GOLDENS = Path(__file__).resolve().parents[2] / "benchmarks" / "output"

RENDERS = (
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table12",
    "table13",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
)


@pytest.mark.parametrize("name", RENDERS)
def test_render_matches_golden(analysis, name):
    render = getattr(reports, f"render_{name}")
    text = render() if name == "table2" else render(analysis)
    assert text + "\n" == (GOLDENS / f"{name}.txt").read_text()


# sha256 of each experiment's pcap as ``Study.export_pcaps`` writes it.
CAPTURE_SHA256 = {
    "ipv4-only": "99f9cbe6a6419195c0642a9e20ae745587c056860d2f64960ccce1f07a7f3616",
    "ipv6-only": "60e045c74fdf748d5d582214ee0e91480844d150454e039dc7cada6922d58825",
    "ipv6-only-rdnss": "2f3d494294b0dcac1f3c0a226facbe29d0f56d423b17a7d8bf6da300c661ca4c",
    "ipv6-only-stateful": "fd77ac98a6104437f8a3febbdc733e43a682059a4343b5555c24feaf3059982d",
    "dual-stack": "d2567f6a9c650b885fe153492720d852214d64dfd4e4d4dd5be6b8cb49aea95b",
    "dual-stack-stateful": "a557ce68107c78dca3a25cbce2630b9e7ed6d55ed0c4a5019f7276c56159d08a",
}


def pcap_sha256(records) -> str:
    """The sha256 of ``records`` written as a pcap file, streamed."""
    digest = hashlib.sha256()
    PcapWriter(SimpleNamespace(write=digest.update)).write_all(records)
    return digest.hexdigest()


@pytest.mark.parametrize("experiment", CAPTURE_SHA256)
def test_capture_matches_pinned_digest(study, experiment):
    assert pcap_sha256(study.experiment(experiment).records) == CAPTURE_SHA256[experiment]
