"""The rendered tables and figures equal the committed goldens, byte for byte.

``benchmarks/output/`` holds what the benchmark suite renders from
``run_full_study(seed=42)``, the same study the session fixture runs, so
these renders must match those files exactly: a change that moves any
report byte fails here, in tier-1.
"""

from pathlib import Path

import pytest

from repro import reports

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
