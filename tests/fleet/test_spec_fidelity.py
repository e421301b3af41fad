"""Every population spec defaults ``fidelity`` properly.

PR 9 introduced the flow-level fast path behind ``getattr(spec,
"fidelity", "packet")`` shims so pickled specs from older runs kept
loading; the field is now declared (with the same default) on every spec
dataclass, so constructing one without the kwarg must work and workers can
read ``spec.fidelity`` directly.
"""

import dataclasses

from repro.exposure.analysis import ExposureSpec
from repro.faults.population import FaultSpec
from repro.fleet.scenario import HomeSpec
from repro.lifecycle.timeline import EpochSpec

DEVICES = ("Behmor Brewer", "Smarter IKettle")


def _fidelity_field(spec_type) -> dataclasses.Field:
    return {f.name: f for f in dataclasses.fields(spec_type)}["fidelity"]


def test_every_spec_declares_fidelity_with_a_packet_default():
    for spec_type in (HomeSpec, ExposureSpec, FaultSpec, EpochSpec):
        assert _fidelity_field(spec_type).default == "packet", spec_type.__name__


def test_specs_construct_without_the_fidelity_kwarg():
    specs = [
        HomeSpec(home_id=0, sim_seed=1, config_name="dual-stack", device_names=DEVICES),
        ExposureSpec(
            home_id=0, sim_seed=1, config_name="dual-stack", firewall="open", device_names=DEVICES
        ),
        FaultSpec(
            home_id=0,
            sim_seed=1,
            config_name="dual-stack",
            device_names=DEVICES,
            fault_names=("dns-blackout",),
        ),
        EpochSpec(home_id=0, epoch=0, sim_seed=1, config_name="dual-stack", device_names=DEVICES),
    ]
    for spec in specs:
        assert spec.fidelity == "packet"
