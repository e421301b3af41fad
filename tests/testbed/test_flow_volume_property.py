"""Property test: flow-fidelity byte accounting matches packet fidelity.

The flow fast path credits ``Flow.bytes_out``/``bytes_in`` from the request
and response lengths the service handler *would* have segmented onto the
wire, so per-device data-plane byte totals must agree with the per-packet
run for any portfolio volume split — including zero budgets and all-v6
fractions, where individual plans round to empty exchanges.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capture import CaptureIndex
from repro.devices import build_inventory
from repro.stack.config import DUAL_STACK, with_fidelity
from repro.testbed import Testbed, run_connectivity_experiment

# Two dual-stack-capable devices with v6-bearing portfolios, so a nonzero
# v6_volume_fraction actually lands bytes on IPv6 plans.
NAMES = ["Echo Dot 3rd gen", "Apple TV"]


def _profiles(volumes, fractions):
    base = {p.name: p for p in build_inventory() if p.name in NAMES}
    return [
        replace(base[name], portfolio=replace(base[name].portfolio, volume=volume, v6_volume_fraction=fraction))
        for name, volume, fraction in zip(NAMES, volumes, fractions)
    ]


def _data_bytes(profiles, fidelity):
    """Per-(device, family) data-flow byte totals for one dual-stack run."""
    testbed = Testbed(seed=23, profiles=profiles, include_controls=False)
    config = with_fidelity(DUAL_STACK, fidelity)
    result = run_connectivity_experiment(testbed, config, checkins=1)
    index = CaptureIndex(
        result.records, testbed.mac_table(), flow_records=result.flow_records
    )
    totals: dict = {}
    for flow in index.flows:
        if not flow.is_data or flow.is_local:
            continue
        key = (flow.device, flow.family)
        out_sum, in_sum = totals.get(key, (0, 0))
        totals[key] = (out_sum + flow.bytes_out, in_sum + flow.bytes_in)
    return totals


@settings(max_examples=5, deadline=None)
@given(
    volumes=st.lists(st.integers(min_value=0, max_value=400_000), min_size=2, max_size=2),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=2
    ),
)
def test_flow_fidelity_preserves_data_byte_totals(volumes, fractions):
    profiles = _profiles(volumes, fractions)
    packet_totals = _data_bytes(profiles, "packet")
    flow_totals = _data_bytes(profiles, "flow")
    assert flow_totals == packet_totals
