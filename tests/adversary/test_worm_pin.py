"""Pinned worm outbreaks: every event and curve point of fixed populations.

``test_worm.py`` compares two runs of the same code; this file pins the
bytes across code versions. The population has its ids out of order and
mixes immune, unexploitable and exploitable homes, so the digests cover the
sorted visiting order, the initial compartments, the per-strategy target
space and the draw schedule (one draw per susceptible home, one scanner
choice per infection, one draw per infected home when ``recovery`` is set).
"""

import hashlib

import pytest

from repro.adversary import WormParams, run_worm
from tests.adversary.test_campaign import device, home

# Built in this (unsorted) order on purpose: the worm must visit homes by id.
POPULATION = {
    9: home([device("tv9", e64=2, low=1, hit=2)]),
    4: home([device("cam4", exploitable=False, e64=3, low=1, hit=3)]),
    12: home(immune=True),
    1: home([device("plug1", e64=1, hit=0), device("hub1", kind="lease", e64=0, low=2, hit=1)], low_iid_space=800),
    15: home([device("tv15", e64=1, low=1, hit=1)]),
    7: home([device("tv7", e64=1, hit=1)], eui64_space=1500),
    3: home([device("bulb3", kind="privacy", e64=0, hit=2)]),
    13: home([device("cam13", e64=1, hit=1)]),
    10: home(immune=True),
    0: home([device("spk0", e64=1, low=1, hit=1), device("cam0", exploitable=False, e64=1, hit=1)]),
    14: home([device("hub14", kind="lease", e64=0, low=1, hit=1)]),
    6: home([device("hub6", e64=2, low=2, hit=0)]),
    11: home([device("tv11", e64=1, low=1, hit=1)]),
    2: home([device("plug2", e64=1, low=1, hit=0)]),
}


def digest(timeline):
    """sha256 over the plain values of every event and every curve point."""
    events = [(e.time, e.home_id, e.source) for e in timeline.events]
    curve = [(p.time, p.susceptible, p.infected, p.removed, p.immune) for p in timeline.curve]
    return hashlib.sha256(repr((events, curve)).encode()).hexdigest()


# (strategy, recovery, seeds) -> (initial susceptible, compromised, removed, sha256)
PINS = {
    ("eui64-sweep", None, 1): (9, 9, 0, "def2e7614dccc4e0eee6e007bafe971fae332789622146c299667cb9767e742d"),
    ("eui64-sweep", None, 2): (9, 9, 0, "df1f26d3a4e267c9aa5e58a300059695599c648ad0c920bb22fa98f20297d50c"),
    ("eui64-sweep", 300.0, 1): (9, 4, 4, "c576056de82cb37284e5f2fc9eac8d0434120dffbff424c47daab7441811a196"),
    ("eui64-sweep", 300.0, 2): (9, 8, 7, "959427cb49cc3707fd8c9abbeb4253cabb885db0979ad4db509f5f3f79d3ef45"),
    ("low-iid", None, 1): (8, 8, 0, "9e758de895b5ff41ff6c692ec1c7a371991155c6cd7d8dbe735e1d80eeb88afa"),
    ("low-iid", None, 2): (8, 8, 0, "323640b1a56552a00446484cf22bbd8e417585c73eb33f2905c99a4401482c05"),
    ("low-iid", 300.0, 1): (8, 6, 6, "dfb3d66cc2378c61eaddbd96d6796e7cdc058b64fe9e7eebcb13d77398f1511d"),
    ("low-iid", 300.0, 2): (8, 6, 6, "dfb3d66cc2378c61eaddbd96d6796e7cdc058b64fe9e7eebcb13d77398f1511d"),
    ("hitlist", None, 1): (9, 9, 0, "2d9ec0a4ee6d345bd060e9cc3bae5865c1c30ae6040fdbd23f12c6522833aaa6"),
    ("hitlist", None, 2): (9, 9, 0, "afbb3b9170851e33a1fea33e2dbe7f1ce3cfb73c2c6d70834d846c3dd6fb7aa8"),
    ("hitlist", 300.0, 1): (9, 9, 9, "dad2c8e98ca07dfa46536274d0f9a7ed6086d260b9590a07937f722a4314d49e"),
    ("hitlist", 300.0, 2): (9, 7, 7, "348e5fb3c08e660debfc93980d295548d444c7170253c57c62101ab54041eca7"),
}


@pytest.mark.parametrize("strategy, recovery, seeds", list(PINS))
def test_worm_outbreak_is_pinned(strategy, recovery, seeds):
    params = WormParams(
        strategy=strategy,
        scan_rate=10.0,
        dt=30.0,
        horizon=1800.0,
        seeds=seeds,
        recovery=recovery,
        hitlist_background=15000,
    )
    timeline = run_worm(POPULATION, params, seed=5)
    assert timeline.population == len(POPULATION)
    first = timeline.curve[0]
    assert (first.infected, first.removed, first.immune) == (0, 0, len(POPULATION) - first.susceptible)
    assert len(timeline.curve) == 61
    summary = (timeline.initial_susceptible, timeline.compromised, timeline.final.removed, digest(timeline))
    assert summary == PINS[strategy, recovery, seeds]
