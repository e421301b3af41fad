"""Property tests pinning down fingerprint semantics.

Two properties matter (DESIGN.md §15): **extensional equality** — closures
that would drive byte-identical simulations hash identically however their
values were constructed — and **sensitivity** — flipping any semantically
meaningful input changes the hash. Both are what make cache hits safe:
a false split only costs time, a false merge would corrupt results.
"""

import dataclasses
import functools
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import canonical, code_epoch, digest, study_fingerprint
from repro.cache import fingerprint as fp
from repro.devices import build_inventory
from repro.faults.schedule import FaultSchedule, FaultWindow, get_fault
from repro.net.mac import MacAddress
from repro.stack.config import with_fidelity, with_firewall
from repro.testbed.study import profiles_by_name, resolve_config


def _closure(**overrides):
    """A small, fully resolved study closure with overridable parts."""
    parts = {
        "sim_seed": 7,
        "config": with_fidelity(with_firewall(resolve_config("dual-stack"), "stateful"), "flow"),
        "profiles": profiles_by_name(("Behmor Brewer", "Smarter IKettle")),
        "fault_schedule": get_fault("dns-blackout"),
        "extra": ("leak", False),
    }
    parts.update(overrides)
    return parts


# ------------------------------------------------------ extensional equality

scalars = st.one_of(st.integers(), st.text(max_size=8), st.booleans(), st.none())


@given(st.dictionaries(st.text(max_size=6), scalars, max_size=8), st.randoms())
def test_dict_insertion_order_is_invisible(mapping, rng):
    shuffled_keys = list(mapping)
    rng.shuffle(shuffled_keys)
    shuffled = {key: mapping[key] for key in shuffled_keys}
    assert canonical(mapping) == canonical(shuffled)
    assert digest(mapping) == digest(shuffled)


@given(st.lists(st.integers(), max_size=10))
def test_set_construction_order_is_invisible(values):
    assert canonical(set(values)) == canonical(set(reversed(values)))
    assert canonical(frozenset(values)) == canonical(set(values))


@given(st.lists(scalars, max_size=10))
def test_sequence_order_is_semantic(values):
    # Device order orders simultaneous events on the LAN, so lists must NOT
    # sort: reversing a non-palindromic sequence must change the canonical form.
    assert canonical(list(values)) == canonical(tuple(values))
    if list(values) != list(reversed(values)):
        assert canonical(values) != canonical(list(reversed(values)))


@settings(max_examples=25, deadline=None)
@given(st.randoms())
def test_fault_window_order_is_invisible(rng):
    windows = [
        FaultWindow("dns-outage", 100.0, 200.0),
        FaultWindow("uplink-down", 250.0, 300.0),
        FaultWindow("loss", 50.0, 80.0, severity=0.3),
    ]
    shuffled = list(windows)
    rng.shuffle(shuffled)
    a = FaultSchedule.of("w", windows)
    b = FaultSchedule.of("w", shuffled)
    assert digest(a) == digest(b)


def test_independently_rebuilt_profiles_hash_identically():
    base = _closure()
    # The uncached build: build_inventory() returns the process's shared catalog.
    fresh = {profile.name: profile for profile in build_inventory.__wrapped__()}
    rebuilt = _closure(profiles=[fresh["Behmor Brewer"], fresh["Smarter IKettle"]])
    assert rebuilt["profiles"][0] is not base["profiles"][0]
    assert study_fingerprint(**base) == study_fingerprint(**rebuilt)


def test_inventory_profiles_all_canonicalize():
    # Every profile in the 93-device inventory must decompose cleanly — a
    # TypeError here means some field grew a type the fingerprint refuses.
    for profile in build_inventory():
        canonical(profile)


# ------------------------------------------------------------- sensitivity


@pytest.mark.parametrize(
    "override",
    [
        {"sim_seed": 8},
        # An exposure cell and an adversary cell of one home share one
        # extractor, so the leak flag alone must split their artifacts.
        {"extra": ("leak", True)},
        {"fault_schedule": None},
        {"fault_schedule": get_fault("uplink-flap")},
        {"extra": ()},
        {"config": with_fidelity(with_firewall(resolve_config("dual-stack"), "open"), "flow")},
        {"config": with_fidelity(with_firewall(resolve_config("dual-stack"), "stateful"), "packet")},
        {"config": with_fidelity(with_firewall(resolve_config("ipv6-only"), "stateful"), "flow")},
        {"profiles": profiles_by_name(("Smarter IKettle", "Behmor Brewer"))},  # order is semantic
        {"profiles": profiles_by_name(("Behmor Brewer",))},
    ],
)
def test_flipping_any_closure_part_changes_the_fingerprint(override):
    assert study_fingerprint(**_closure()) != study_fingerprint(**_closure(**override))


def test_flipping_one_profile_attribute_changes_the_fingerprint():
    profiles = profiles_by_name(("Behmor Brewer", "Smarter IKettle"))
    mutated = [dataclasses.replace(profiles[0], gua_addr_count=profiles[0].gua_addr_count + 1), profiles[1]]
    assert study_fingerprint(**_closure()) != study_fingerprint(**_closure(profiles=mutated))


def test_another_mac_changes_the_fingerprint():
    # The MAC is what a device's EUI-64 addresses embed, so it is input.
    profiles = profiles_by_name(("Behmor Brewer", "Smarter IKettle"))
    moved = [dataclasses.replace(profiles[0], mac=MacAddress("02:00:5e:10:00:01")), profiles[1]]
    assert study_fingerprint(**_closure()) != study_fingerprint(**_closure(profiles=moved))


def test_flipping_one_fault_window_changes_the_fingerprint():
    schedule = get_fault("dns-blackout")
    window = schedule.windows[0]
    nudged = FaultSchedule.of(
        schedule.name,
        (dataclasses.replace(window, end=window.end + 1.0),) + schedule.windows[1:],
    )
    assert study_fingerprint(**_closure()) != study_fingerprint(
        **_closure(fault_schedule=nudged)
    )


def test_unhashable_objects_are_refused_not_reprd():
    class Opaque:
        pass

    def closure(value):
        return value

    # A lambda's or closure's name cannot see the state it captures.
    for value in (Opaque(), lambda value: value, closure, functools.partial(closure, 1)):
        with pytest.raises(TypeError):
            canonical(value)
        with pytest.raises(TypeError):
            digest("study", value)


# --------------------------------------------------------------- code epoch


def test_code_epoch_is_deterministic():
    assert code_epoch() == code_epoch()
    assert len(code_epoch()) == 16


def test_code_epoch_tracks_the_package_source(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(fp._PACKAGE_ROOT, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert fp._source_epoch(copy) == code_epoch()

    with open(copy / "sim" / "engine.py", "a") as fh:
        fh.write("# one comment line is another code epoch\n")
    assert fp._source_epoch(copy) != code_epoch()


# ----------------------------------------------------- functions by name


def _square(value, *, offset=0):
    return value * value + offset


def test_functions_and_partials_reduce_by_name_and_arguments():
    assert canonical(_square) == ("fn", __name__, "_square")
    bound = functools.partial(_square, 3, offset=1)
    assert canonical(bound) == canonical(functools.partial(_square, 3, offset=1))
    assert canonical(bound) != canonical(functools.partial(_square, 3, offset=2))
    assert canonical(bound) != canonical(functools.partial(_square, 4, offset=1))
