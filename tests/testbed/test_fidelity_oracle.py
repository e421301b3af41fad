"""Fidelity equality over random homes (DESIGN.md §13).

Each example draws one home of the ``flip50`` population (any index, any
population seed), one Table 2 config, one firewall mode and one fault
preset, ``none`` included, and runs the home study in packet and in flow
fidelity. The flow run must agree with the packet run on everything the
analysis and the population workers read: (a) the capture index, event
timestamps included, (b) the functionality results, (c) the fleet worker's
summary apart from its frame count, and (d) the faults worker's
observations. (e) Every frame the flow run leaves on the wire must be a
packet-run frame with the same bytes at the same float timestamp, and (f)
the run must leave the home in the same state: router tables, firewall,
random streams, address use and caches.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.faults.analysis import observe_study
from repro.faults.schedule import FAULT_PRESETS
from repro.fleet.scenario import generate_home, get_scenario
from repro.fleet.summary import summarize_home
from repro.stack.config import ALL_CONFIGS, with_firewall
from repro.stack.firewall import FIREWALL_MODES
from repro.testbed.study import resolve_home_inputs, run_home_study
from tests.testbed.test_flow_fidelity import _snapshot, assert_frames_kept_in_place, assert_same_end_state

FLIP50 = get_scenario("flip50")


def _home_study(spec, config, schedule, fidelity):
    config, profiles = resolve_home_inputs(config, spec.device_names, fidelity=fidelity)
    return run_home_study(spec.sim_seed, config, profiles, fault_schedule=schedule)


@settings(max_examples=25, deadline=None)
@given(
    index=st.integers(0, 199),
    population_seed=st.integers(0, 49),
    config=st.sampled_from(ALL_CONFIGS),
    firewall=st.sampled_from(FIREWALL_MODES),
    fault=st.sampled_from(sorted(FAULT_PRESETS)),
)
def test_flow_fidelity_equals_packet_fidelity(index, population_seed, config, firewall, fault):
    config = with_firewall(config, firewall)
    spec = replace(generate_home(index, population_seed, FLIP50), config_name=config.name)
    preset = FAULT_PRESETS[fault]
    schedule = None if preset.is_noop else preset
    packet = _home_study(spec, config, schedule, "packet")
    flow = _home_study(spec, config, schedule, "flow")

    assert _snapshot(flow.shared_indexes()[config.name]) == _snapshot(packet.shared_indexes()[config.name])

    assert flow.experiment(config.name).functionality == packet.experiment(config.name).functionality

    assert summarize_home(flow, spec) == summarize_home(packet, spec)

    after = preset.last_end
    assert observe_study(flow, config.name, after=after) == observe_study(packet, config.name, after=after)

    assert_frames_kept_in_place(flow.experiment(config.name).records, packet.experiment(config.name).records)

    assert_same_end_state(flow.testbed, packet.testbed)
