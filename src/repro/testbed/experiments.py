"""The connectivity experiments of Table 2.

Each experiment follows the paper's procedure (§4.2): configure the router,
reboot every device, allow a settling period for boot/auto-configuration and
cloud registration, run periodic check-in cycles, then perform the
functionality test on every device.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.net.pcap import PcapRecord
from repro.stack.config import ALL_CONFIGS, NetworkConfig
from repro.testbed.lab import Testbed

SETTLE_TIME = 120.0
CHECKIN_INTERVAL = 500.0
FUNCTIONALITY_AT = 1150.0
EXPERIMENT_DURATION = 1400.0

CONNECTIVITY_EXPERIMENTS = list(ALL_CONFIGS)


@dataclass
class ExperimentResult:
    """Everything observed during one connectivity experiment."""

    config: NetworkConfig
    records: Sequence[PcapRecord]  # a LiveCapture, or a list read from a pcap file
    functionality: dict[str, bool] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0
    # Records of the exchanges the flow-level fast path ran without frames
    # (empty in packet fidelity); CaptureIndex merges them with the frames.
    flow_records: list = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.config.name

    def __repr__(self) -> str:
        functional = sum(1 for ok in self.functionality.values() if ok)
        return (
            f"ExperimentResult({self.name}, frames={len(self.records)}, "
            f"functional={functional}/{len(self.functionality)})"
        )


def run_connectivity_experiment(
    testbed: Testbed,
    config: NetworkConfig,
    *,
    checkins: int = 2,
    duration: float = EXPERIMENT_DURATION,
) -> ExperimentResult:
    """Run one row of Table 2 on the testbed and return its capture."""
    sim = testbed.sim
    result = ExperimentResult(config, records=[], started_at=sim.now)

    result.records = testbed.start_capture()
    result.flow_records = testbed.configure(config)

    # Check-in cycles (cloud registration + periodic traffic).
    for cycle in range(checkins):
        at = SETTLE_TIME + cycle * CHECKIN_INTERVAL
        for device in testbed.everyone:
            sim.schedule(at, device.checkin)

    # Functionality test on every analyzed device.
    def test_device(device) -> None:
        device.run_functionality(lambda ok, name=device.name: result.functionality.setdefault(name, ok))

    for device in testbed.devices:
        sim.schedule(FUNCTIONALITY_AT, test_device, device)

    sim.run(duration)
    testbed.stop_capture()
    testbed.flow_path.enabled = False
    testbed.flow_path.records = []  # detach the live list from the result
    result.finished_at = sim.now
    # Devices that never answered the functionality probe are not functional.
    for device in testbed.devices:
        result.functionality.setdefault(device.name, False)
    return result
