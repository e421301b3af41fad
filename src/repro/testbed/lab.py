"""Lab assembly: one LAN, one router, the Internet, and the device fleet."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cloud import DnsRegistry, Internet
from repro.devices import IoTDevice, build_inventory
from repro.devices.inventory import control_phones
from repro.devices.profile import DeviceProfile
from repro.net.mac import MacAddress
from repro.net.pcap import LiveCapture
from repro.sim import EthernetLink, Simulator
from repro.stack import NetworkConfig, Router
from repro.stack.flowpath import FlowFastPath


class Testbed:
    """The simulated Mon(IoT)r lab.

    ``devices`` holds the 93 analyzed IoT devices; ``controls`` the two
    phones used to validate each configuration (excluded from analysis,
    exactly as in the paper).
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        seed: int = 42,
        profiles: Optional[Sequence[DeviceProfile]] = None,
        include_controls: bool = True,
    ):
        self.sim = Simulator(seed=seed)
        self.link = EthernetLink(self.sim)
        self.registry = DnsRegistry()
        self.internet = Internet(self.sim, self.registry)
        self.router = Router(self.sim, self.link, self.internet)
        self.profiles = profiles if profiles is not None else build_inventory()
        self.devices = [IoTDevice(self.sim, self.link, profile, self.internet) for profile in self.profiles]
        self.controls = []
        if include_controls:
            self.controls = [IoTDevice(self.sim, self.link, profile, self.internet) for profile in control_phones()]
        self.internet.materialize_registry()
        # Hybrid-fidelity switchboard: wired into every host but disabled
        # until ``configure`` applies a configuration with flow fidelity.
        self.flow_path = FlowFastPath(self.sim, self.link, self.router, self.internet)
        for host in self.devices + self.controls:
            self.flow_path.attach(host.stack)

    def configure(self, config: NetworkConfig) -> list:
        """Apply ``config``: configure the router, run the flow fast path
        exactly when ``config.fidelity`` is ``flow``, and prepare (reboot)
        every host. Returns the fast path's fresh, live record list."""
        self.router.configure(config)
        self.flow_path.enabled = config.fidelity == "flow"
        self.flow_path.records = []
        for device in self.everyone:
            device.prepare(config)
        return self.flow_path.records

    def close(self) -> None:
        """Cut the back references that make a finished testbed a cycle.

        Afterwards the testbed frees by reference counting, without waiting
        for a full collection. It is unusable: nothing can run or be
        measured on it, so read what a summary needs first.
        """
        self.sim.close()
        self.link.close()
        self.internet.close()
        self.router.firewall = None  # its clock, ``lambda: self.sim.now``, holds the router
        for device in self.everyone:
            # Each engine's send and schedule are the stack's bound methods,
            # and its ``flow_host`` is the stack.
            device.stack.tcp4 = device.stack.tcp6 = None

    # -- capture taps ---------------------------------------------------------

    def start_capture(self) -> LiveCapture:
        """Attach a tcpdump-style tap; returns the (live) capture.

        The capture keeps the sender's structured frames, so the analysis
        pipeline never parses them; bytes are encoded only at pcap export.
        """
        capture = LiveCapture()
        self.link.add_tap(capture.tap)
        self._active_tap = capture.tap
        return capture

    def stop_capture(self) -> None:
        tap = getattr(self, "_active_tap", None)
        if tap is not None:
            self.link.remove_tap(tap)
            self._active_tap = None

    # -- identity -------------------------------------------------------------

    def mac_table(self) -> dict[MacAddress, str]:
        """The lab inventory: MAC -> device name (the paper's ground truth
        mapping used to attribute captured traffic to devices)."""
        return {device.mac: device.name for device in self.devices}

    def device(self, name: str) -> IoTDevice:
        for candidate in self.devices + self.controls:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    @property
    def everyone(self) -> list[IoTDevice]:
        return self.devices + self.controls
