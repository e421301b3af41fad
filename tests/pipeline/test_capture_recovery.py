"""The paper's pipeline recovers its tables from exported captures alone.

The paper analysed tcpdump captures. Exporting the full seed-42 packet
study of the shared ``study`` fixture, loading the pcap files back and
re-running the analysis must render every capture-derived table and figure
exactly as the live study does. The active AAAA probes are not frames, so
the loaded study takes the live ones.
"""

from repro import reports
from repro.core.analysis import StudyAnalysis
from repro.core.offline import load_study_from_pcaps
from tests.core.test_offline import RENDERS


def test_exported_captures_render_the_live_tables(study, analysis, tmp_path):
    study.export_pcaps(tmp_path)
    functionality = {name: result.functionality for name, result in study.experiments.items()}
    loaded = load_study_from_pcaps(tmp_path, study.mac_table, functionality, study.testbed.profiles)
    loaded.active_dns = study.active_dns
    offline = StudyAnalysis(loaded)
    for name in RENDERS:
        render = getattr(reports, f"render_{name}")
        assert render(offline) == render(analysis), f"{name} differs when re-analysed from the exported captures"
