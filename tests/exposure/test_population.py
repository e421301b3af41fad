"""Spec generation, the exposure fold, and report determinism."""

import pytest

from repro.exposure import ExposureFold, ExposureSpec, run_exposure_stream, run_home_exposure
from repro.exposure.population import _exposure_unit
from repro.fleet import run_sharded
from repro.reports import render_exposure


def unit(index, *, seed=11, firewalls=("open", "stateful")):
    """Home ``index``'s (home x firewall) specs, as the stream generates them."""
    return _exposure_unit(index, seed=seed, config_name="dual-stack", firewalls=firewalls, fidelity="packet")


def scan(*units, shards=1):
    """Fold hand-built units (tuples of specs) through the sharded engine."""
    return run_sharded(
        len(units),
        units.__getitem__,
        fold=ExposureFold(config_name="dual-stack"),
        worker=run_home_exposure,
        shards=shards,
    )


def test_spec_generation_is_deterministic_and_paired():
    a = [spec for index in range(3) for spec in unit(index)]
    b = [spec for index in range(3) for spec in unit(index)]
    assert a == b
    assert len(a) == 6
    # the same home population under every firewall mode (paired design)
    open_specs = [s for s in a if s.firewall == "open"]
    stateful_specs = [s for s in a if s.firewall == "stateful"]
    for o, s in zip(open_specs, stateful_specs):
        assert (o.home_id, o.sim_seed, o.device_names) == (s.home_id, s.sim_seed, s.device_names)
    # ... and another seed draws other homes
    c = unit(0, seed=12, firewalls=("open",))
    assert c[0].device_names != a[0].device_names or c[0].sim_seed != a[0].sim_seed


def test_spec_generation_validates_inputs():
    with pytest.raises(ValueError):
        run_exposure_stream(2, seed=1, firewalls=("bogus",))
    with pytest.raises(ValueError):
        run_exposure_stream(2, seed=1, firewalls=())
    with pytest.raises(ValueError):
        run_exposure_stream(2, seed=1, config_name="ipv4-only")


def test_sort_key_orders_by_home_then_firewall():
    """A home's unit lists its cells in the requested firewall order."""
    specs = unit(4, firewalls=("stateful", "open"))
    assert [(spec.home_id, spec.firewall) for spec in specs] == [(4, "stateful"), (4, "open")]
    spec = ExposureSpec(4, 1, "dual-stack", "stateful", ("Google TV",))
    assert len(spec.device_names) == 1


@pytest.fixture(scope="module")
def small_fleet():
    return scan(tuple(ExposureSpec(0, 7, "dual-stack", fw, ("Google TV", "Apple TV")) for fw in ("open", "stateful")))


def test_aggregate_open_dominates_stateful(small_fleet):
    aggregate = small_fleet
    assert aggregate.total_runs == 2 and not aggregate.failed
    open_stats, stateful_stats = aggregate.per_firewall    # FIREWALL_MODES order
    assert (open_stats.firewall, stateful_stats.firewall) == ("open", "stateful")
    # same population, weaker shield: open exposes at least as much
    assert open_stats.devices == stateful_stats.devices
    assert open_stats.discoverable_devices == stateful_stats.discoverable_devices
    assert open_stats.reachable_devices >= stateful_stats.reachable_devices
    assert open_stats.reachable_devices >= 1        # the EUI-64 TV
    assert stateful_stats.reachable_devices == 0
    assert stateful_stats.wan_dropped > 0
    kinds = {k.kind for stats in aggregate.per_firewall for k in stats.by_addr_kind}
    assert "eui64" in kinds and "privacy" in kinds


def test_render_exposure_is_deterministic(small_fleet):
    text = render_exposure(small_fleet)
    assert text == render_exposure(small_fleet)
    assert "WAN exposure: dual-stack" in text
    assert "stateful" in text and "open" in text
    assert "Discovery by address type" in text


def test_aggregate_reports_failures():
    aggregate = scan((ExposureSpec(1, 7, "dual-stack", "open", ("No Such Device",)),))
    assert aggregate.completed == 0
    assert aggregate.failed[0][0] == 1 and aggregate.failed[0][1] == "open"
    assert "FAILED home 1" in render_exposure(aggregate)


def test_all_failed_run_still_names_its_config():
    """The config is a run parameter: a run in which no scan completes keeps it."""
    aggregate = run_exposure_stream(2, seed=1, config_name="ipv6-only", firewalls=("open",), timeout=0.001)
    assert aggregate.completed == 0 and len(aggregate.failed) == 2
    assert aggregate.config_name == "ipv6-only"
    assert "WAN exposure: ipv6-only, 0/2 home-scans, 2 failed" in render_exposure(aggregate)


def test_worker_results_sorted_by_sort_key():
    """Arrival order never leaks: firewall columns follow FIREWALL_MODES."""
    units = (
        (ExposureSpec(1, 7, "dual-stack", "stateful", ("Google TV",)),),
        (ExposureSpec(0, 7, "dual-stack", "stateful", ("Google TV",)), ExposureSpec(0, 7, "dual-stack", "open", ("Google TV",))),
    )
    aggregate = scan(*units, shards=2)
    assert [stats.firewall for stats in aggregate.per_firewall] == ["open", "stateful"]
    open_stats, stateful_stats = aggregate.per_firewall
    assert stateful_stats.homes == 2
    # the fold counts exactly what run_home_exposure measured
    direct = run_home_exposure(units[1][1])
    assert open_stats.devices == len(direct.devices)


def test_stream_is_byte_identical_across_shards():
    kwargs = dict(seed=11, config_name="dual-stack", firewalls=("stateful", "open"), fidelity="flow")
    single = run_exposure_stream(2, shards=1, **kwargs)
    sharded = run_exposure_stream(2, shards=2, **kwargs)
    assert sharded == single
    assert render_exposure(sharded) == render_exposure(single)
