"""One merge property for all five population folds.

Every fold keeps its running state in a tally and merges tallies with
:func:`~repro.fleet.shard.merge_tallies`. The sharded engine and journal
checkpoints fold contiguous ranges of units and merge the partial tallies
left to right, so that is the shape drawn here: hypothesis picks cut points
over hand-built unit outcomes (a failed row in every fold, several configs,
firewalls, faults or epochs wherever a fold has them), and the merged fold
must finalize to the serial fold's aggregate and render the same bytes.
"""

import pickle
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AdversaryFold, WormParams
from repro.exposure import DeviceExposure, ExposureFold, ExposureSpec, HomeExposure
from repro.faults import OUTCOMES, CellOutcome, CellStats, FaultFold, FaultSpec, HomeFaultSummary
from repro.fleet import FleetFold, HomeResult, HomeSpec, HomeSummary
from repro.fleet.aggregate import QuantileSketch, StreamStats
from repro.fleet.shard import merge_tallies
from repro.lifecycle import EpochExposure, EpochSpec, EpochSummary, LifecycleFold
from repro.reports import render_adversary, render_exposure, render_faults, render_fleet_summary, render_lifecycle

ERROR = "Traceback (most recent call last):\nRuntimeError: boom"
FIREWALLS = ("open", "stateful", "pinhole")
KINDS = ("eui64", "privacy", "stable", "none")


def _devices(home):
    return tuple(f"dev{i}" for i in range(2 + home % 3))


def fleet_units():
    configs = ("ipv4-only", "dual-stack", "ipv6-only")
    units = []
    for home in range(8):
        config, devices = configs[home % 3], _devices(home)
        spec = HomeSpec(home_id=home, sim_seed=home, config_name=config, device_names=devices)
        if home == 5:
            units.append((HomeResult(spec=spec, error=ERROR),))
            continue
        summary = HomeSummary(
            config_name=config,
            sim_seed=home,
            devices=devices,
            functional=devices[1:],
            bricked=devices[:1] if config == "ipv6-only" else (),
            eui64_devices=devices[: home % 2],
            data_v6_devices=devices if config == "dual-stack" else (),
            v6_share=home / 10 if config == "dual-stack" else None,
        )
        units.append((HomeResult(spec=spec, summary=summary),))
    return units


def exposure_units():
    units = []
    for home in range(7):
        devices = _devices(home)
        cells = []
        for firewall in FIREWALLS[: 2 + home % 2]:
            spec = ExposureSpec(home, home, "dual-stack", firewall, devices)
            if (home, firewall) == (2, "stateful"):
                cells.append(HomeResult(spec=spec, error=ERROR))
                continue
            wide_open = firewall == "open"
            scanned = tuple(
                DeviceExposure(
                    device=name,
                    addr_kind=KINDS[(home + i) % len(KINDS)],
                    gua_count=1 + i,
                    discoverable=(home + i) % 2 == 0,
                    responsive=(home + i) % 3 == 0,
                    reachable=wide_open and i == 0,
                    open_tcp=(80, 443)[: 1 + home % 2] if wide_open and i == 0 else (),
                    open_udp=(5353,) if i == 1 else (),
                    eui64_entries=0,
                    low_iid_entries=0,
                    hitlist_entries=0,
                )
                for i, name in enumerate(devices)
            )
            summary = HomeExposure(
                config_name="dual-stack",
                firewall=firewall,
                immune=False,
                eui64_space=len(devices),
                low_iid_space=0,
                probes_sent=10 + home,
                wan_dropped=0 if wide_open else 5 + home,
                passed_pinhole=0,
                fault_events=0,
                devices=scanned,
            )
            cells.append(HomeResult(spec=spec, summary=summary))
        units.append(tuple(cells))
    return units


def fault_units():
    configs = ("dual-stack", "ipv6-only")
    units = []
    for home in range(7):
        devices = _devices(home)
        # The first home injects only one fault, so the fault column order is
        # first-seen across units, not within one.
        faults = ("uplink-flap",) if home == 0 else ("dns-blackout", "uplink-flap")
        cells = []
        for config in configs:
            spec = FaultSpec(home, home, config, devices, faults)
            if (home, config) == (3, "ipv6-only"):
                cells.append(HomeResult(spec=spec, error=ERROR))
                continue
            outcomes = tuple(
                CellOutcome(
                    device=name,
                    fault=fault,
                    outcome=OUTCOMES[(home + i + j) % len(OUTCOMES)],
                    time_to_recover=float(5 * (home + i)) if (home + i + j) % 2 else None,
                    dns_retries=home + i,
                    dns_timeouts=(home + j) % 3,
                    flow_failures=i,
                    fallbacks=j,
                )
                for j, fault in enumerate(faults)
                for i, name in enumerate(devices)
            )
            summary = HomeFaultSummary(
                device_count=len(devices),
                cells=outcomes,
                injected=tuple((fault, 2 + home) for fault in faults),
            )
            cells.append(HomeResult(spec=spec, summary=summary))
        units.append(tuple(cells))
    return units


def lifecycle_units():
    units = []
    for home in range(6):
        base = _devices(home)
        cells = []
        for epoch in range(4):
            config = "dual-stack" if epoch < 1 + home % 3 else "ipv6-only"
            firmware = (("dev0", ("v6-stack",)),) if epoch >= 2 + home % 2 else ()
            devices = base + (("late",) if epoch >= 2 and home % 2 else ())
            devices = devices[1:] if epoch == 3 and home == 4 else devices
            spec = EpochSpec(
                home_id=home,
                epoch=epoch,
                sim_seed=home,
                config_name=config,
                device_names=devices,
                firmware=firmware,
                transitioned=epoch == 1 + home % 3,
            )
            if home == 5 or (home, epoch) == (1, 2):
                cells.append(HomeResult(spec=spec, error=ERROR))  # home 5 fails every epoch
                continue
            bricked = devices[:1] if config == "ipv6-only" and not firmware else ()
            summary = EpochSummary(
                config_name=config,
                devices=devices,
                functional=tuple(name for name in devices if name not in bricked),
                bricked=bricked,
                ready=devices[1:] if not firmware else devices,
                eui64_devices=devices[: epoch % 2],
                gua_addresses=len(devices) + epoch,
                retired_addresses=epoch,
                exposure=EpochExposure("stateful", len(devices), home % 2, 20, 4, epoch, 0) if home % 3 else None,
            )
            cells.append(HomeResult(spec=spec, summary=summary))
        units.append(tuple(cells))
    return units


def adversary_units():
    configs = ("dual-stack", "ipv6-only", "ipv4-only")
    units = []
    for home in range(7):
        devices = _devices(home)
        config = configs[home % 3]
        cells = []
        for firewall in FIREWALLS[:2]:
            spec = ExposureSpec(home, home, config, firewall, devices, fault_name="uplink-flap", leak=True)
            if (home, firewall) == (4, "open"):
                cells.append(HomeResult(spec=spec, error=ERROR))
                continue
            wide_open = firewall == "open" and config != "ipv4-only"
            summary = HomeExposure(
                config_name=config,
                firewall=firewall,
                immune=config == "ipv4-only",
                eui64_space=1 << 12,
                low_iid_space=256,
                probes_sent=3 * home,
                wan_dropped=0 if wide_open else home,
                passed_pinhole=0,
                fault_events=home % 2,
                devices=tuple(
                    DeviceExposure(
                        device=name,
                        addr_kind=KINDS[(home + i) % 3],
                        gua_count=1,
                        discoverable=True,
                        responsive=wide_open,
                        reachable=wide_open,
                        open_tcp=(8008,) if wide_open and i == 0 else (),
                        open_udp=(),
                        eui64_entries=1 if (home + i) % 3 == 0 else 0,
                        low_iid_entries=i % 2,
                        hitlist_entries=1,
                    )
                    for i, name in enumerate(devices)
                ),
            )
            cells.append(HomeResult(spec=spec, summary=summary))
        units.append(tuple(cells))
    return units


WORM = WormParams(strategy="eui64-sweep", scan_rate=2000.0, dt=30.0, horizon=600.0)

# fold name -> (fold, unit outcomes, renderer)
CASES = {
    "fleet": (FleetFold(), fleet_units(), render_fleet_summary),
    "exposure": (ExposureFold(config_name="dual-stack"), exposure_units(), render_exposure),
    "faults": (FaultFold(), fault_units(), render_faults),
    "lifecycle": (LifecycleFold(wave_name="flash-cut"), lifecycle_units(), render_lifecycle),
    "adversary": (
        AdversaryFold(params=WORM, seed=3, scenario_name="baseline", fault_name="uplink-flap"),
        adversary_units(),
        render_adversary,
    ),
}


def fold_units(fold, units):
    acc = fold.empty()
    for outcomes in units:
        acc = fold.add(acc, outcomes)
    return acc


@pytest.mark.parametrize("name", list(CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_contiguous_partial_folds_merge_to_the_serial_fold(name, data):
    """What ``run_sharded`` and a journal resume do must equal one serial fold."""
    fold, units, render = CASES[name]
    reference = fold.finalize(fold_units(fold, units))

    cuts = sorted(data.draw(st.sets(st.integers(1, len(units) - 1), max_size=5)))
    bounds = [0, *cuts, len(units)]
    merged = fold.empty()
    for lo, hi in zip(bounds, bounds[1:]):
        partial = fold_units(fold, units[lo:hi])
        if data.draw(st.booleans()):
            partial = pickle.loads(pickle.dumps(partial))  # a checkpoint restored from a journal
        merged = fold.merge(merged, partial)
    aggregate = fold.finalize(merged)
    assert aggregate == reference
    assert render(aggregate) == render(reference)


@pytest.mark.parametrize("name", list(CASES))
def test_every_fold_finalizes_and_renders_the_empty_tally(name):
    fold, _units, render = CASES[name]
    empty = fold.finalize(fold.empty())
    assert empty == fold.finalize(fold.merge(fold.empty(), fold.empty()))
    assert render(empty)


@pytest.mark.parametrize("leaf", [1.5, "dual-stack", None], ids=["float", "str", "None"])
def test_merge_tallies_refuses_leaves_without_an_exact_merge(leaf):
    with pytest.raises(TypeError):
        merge_tallies(Counter(slot=leaf), Counter(slot=leaf))
    with pytest.raises(TypeError):
        merge_tallies({"row": {"slot": leaf}}, {"row": {"slot": leaf}})


def test_merge_tallies_rules():
    left = Counter(total=2, failed=[(3, "boom")], rows={"b": Counter(homes=1)})
    left["share"] = StreamStats.of([0.5])
    right = Counter(total=1, failed=[(1, "bang")], rows={"a": Counter(homes=2), "b": Counter(homes=1, devices=4)})
    right["share"] = StreamStats.of([0.25])
    right["sketch"] = QuantileSketch.of([1.0])
    merged = merge_tallies(left, right)
    assert merged is left
    assert merged["total"] == 3
    assert merged["failed"] == [(3, "boom"), (1, "bang")]
    assert list(merged["rows"]) == ["b", "a"]  # first-seen key order
    assert merged["rows"] == {"b": Counter(homes=2, devices=4), "a": Counter(homes=2)}
    assert merged["share"] == StreamStats.of([0.5, 0.25])
    assert merged["sketch"] == QuantileSketch.of([1.0])  # only right held it: adopted as is
    with pytest.raises(TypeError):
        merge_tallies(Counter(total=1), Counter(total=[1]))


def test_fault_outcomes_count_under_cell_field_names():
    """FaultFold counts each outcome under its own name; each must be a CellStats field."""
    assert set(OUTCOMES) <= {field.name for field in fields(CellStats)}
