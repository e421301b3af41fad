"""Aggregation math over hand-built summaries (no simulation)."""

import pytest

from repro.fleet import FleetFold, HomeResult, HomeSpec, HomeSummary
from repro.reports import render_fleet_summary


def _spec(home_id, config):
    return HomeSpec(home_id=home_id, sim_seed=home_id, config_name=config, device_names=("X",))


def _summary(home_id, config, *, devices=4, bricked=(), eui64=(), share=None):
    """One completed home: its spec labels the hand-built summary."""
    summary = HomeSummary(
        config_name=config,
        sim_seed=home_id,
        devices=tuple(f"dev{i}" for i in range(devices)),
        functional=tuple(f"dev{i}" for i in range(devices - len(bricked))),
        bricked=tuple(bricked),
        eui64_devices=tuple(eui64),
        data_v6_devices=(),
        v6_share=share,
    )
    return HomeResult(spec=_spec(home_id, config), summary=summary)


def aggregate_of(results):
    """Fold hand-built home results, one home per unit."""
    fold = FleetFold()
    acc = fold.empty()
    for result in results:
        acc = fold.add(acc, (result,))
    return fold.finalize(acc)


def test_per_config_and_total_statistics():
    aggregate = aggregate_of(
        [
            _summary(0, "ipv6-only", bricked=("a", "b")),
            _summary(1, "ipv6-only"),
            _summary(2, "dual-stack", eui64=("c",), share=0.25),
            _summary(3, "dual-stack", share=0.75),
        ]
    )

    by_name = {stats.config_name: stats for stats in aggregate.per_config}
    v6only = by_name["ipv6-only"]
    assert v6only.homes == 2
    assert v6only.bricked_devices == 2
    assert v6only.homes_with_bricked == 1
    assert v6only.fraction_homes_bricked == pytest.approx(0.5)
    assert v6only.expected_bricked_per_home == pytest.approx(1.0)

    dual = by_name["dual-stack"]
    assert dual.homes_with_eui64 == 1
    assert dual.fraction_homes_eui64 == pytest.approx(0.5)

    assert aggregate.total_devices == 16
    assert aggregate.fraction_homes_bricked == pytest.approx(0.25)
    assert aggregate.expected_bricked_per_home == pytest.approx(0.5)
    assert aggregate.eui64_device_prevalence == pytest.approx(1 / 16)

    share = aggregate.v6_share
    assert share.count == 2
    assert share.minimum == pytest.approx(0.25)
    assert share.mean == pytest.approx(0.5)
    assert share.maximum == pytest.approx(0.75)


def test_config_rows_follow_table2_order():
    aggregate = aggregate_of(
        [
            _summary(0, "dual-stack"),
            _summary(1, "ipv4-only"),
            _summary(2, "ipv6-only"),
        ]
    )
    names = [stats.config_name for stats in aggregate.per_config]
    assert names == ["ipv4-only", "ipv6-only", "dual-stack"]


def test_failed_homes_surface_in_aggregate_and_rendering():
    failed = HomeResult(spec=_spec(5, "ipv6-only"), error="Traceback ...\nKeyError: 'boom'")
    aggregate = aggregate_of([_summary(0, "ipv6-only"), failed])
    assert aggregate.total_homes == 2
    assert aggregate.completed_homes == 1
    assert aggregate.failed_homes == ((5, "KeyError: 'boom'"),)

    text = render_fleet_summary(aggregate)
    assert "1 failed" in text
    assert "FAILED home 5: KeyError: 'boom'" in text


def test_empty_fleet_renders():
    aggregate = aggregate_of([])
    assert aggregate.total_homes == 0
    assert aggregate.v6_share is None
    assert "0/0 homes" in render_fleet_summary(aggregate)
