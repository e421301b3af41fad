"""Offline analysis: run the pipeline on pcap files from disk.

The paper's artifacts are pcaps plus a device inventory; this module lets a
downstream user point the same analysis at *their own* captures:

    study = load_study_from_pcaps("captures/", mac_table, functionality)
    analysis = StudyAnalysis(study, metadata)
    print(render_table3(analysis))

Experiment names are taken from file stems and must use the Table 2 names
(``ipv4-only``, ``ipv6-only``, ``ipv6-only-rdnss``, ``ipv6-only-stateful``,
``dual-stack``, ``dual-stack-stateful``) for the experiment-group analyses
to find them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.net.pcap import LINKTYPE_ETHERNET, PcapReader
from repro.stack.config import ALL_CONFIGS
from repro.testbed.experiments import ExperimentResult
from repro.testbed.study import Study

_CONFIG_BY_NAME = {config.name: config for config in ALL_CONFIGS}


class _OfflineTestbed:
    """A stand-in testbed carrying only what offline analysis needs."""

    def __init__(self, mac_table, profiles):
        self._mac_table = dict(mac_table)
        self.profiles = profiles or []

    def mac_table(self):
        return dict(self._mac_table)


def load_study_from_pcaps(
    directory,
    mac_table: dict,
    functionality: Optional[dict[str, dict[str, bool]]] = None,
    profiles=None,
) -> Study:
    """Build a :class:`Study` from ``<experiment-name>.pcap`` files.

    ``mac_table`` maps MAC addresses to device names (the lab inventory).
    ``functionality`` optionally maps experiment name -> device -> bool; it
    defaults to empty (functionality-dependent rows then read as zero, just
    as they would for an analyst without test notes).
    """
    directory = Path(directory)
    functionality = functionality or {}
    study = Study(testbed=_OfflineTestbed(mac_table, profiles))
    paths = sorted(directory.glob("*.pcap"))
    if not paths:
        raise FileNotFoundError(f"no .pcap files under {directory}")
    for path in paths:
        name = path.stem
        if name not in _CONFIG_BY_NAME:
            raise ValueError(
                f"{path.name}: experiment name must be one of {sorted(_CONFIG_BY_NAME)}"
            )
        with open(path, "rb") as stream:
            reader = PcapReader(stream)
            if reader.linktype != LINKTYPE_ETHERNET:
                raise ValueError(
                    f"{path.name}: link type {reader.linktype} is not Ethernet ({LINKTYPE_ETHERNET})"
                )
            records = list(reader)
        study.experiments[name] = ExperimentResult(
            _CONFIG_BY_NAME[name],
            records=records,
            functionality=dict(functionality.get(name, {})),
        )
    return study
