"""Every population worker frees its finished home by reference counting.

A shard runs one home after another under CPython's default collection.
Each worker closes its testbed once its summary is taken
(``Testbed.close``), so with automatic collection off nothing is left for
``gc.collect()`` to find: a shard holds one home at a time.
"""

import gc

import pytest

from repro.cache.store import active_cache
from repro.exposure.analysis import ExposureSpec, run_home_exposure
from repro.faults.analysis import run_home_faults
from repro.faults.population import FaultSpec
from repro.faults.schedule import FAULT_PRESETS, NO_FAULTS
from repro.fleet import HomeSpec, simulate_home
from repro.lifecycle.analysis import run_home_epoch
from repro.lifecycle.timeline import EpochSpec
from repro.testbed import study

DEVICES = ("Amcrest Cam", "Nest Camera", "Samsung Fridge", "Ring Doorbell")
FAULTS = tuple(name for name in FAULT_PRESETS if name != NO_FAULTS.name)

WORKERS = {
    "simulate_home": lambda fidelity: simulate_home(HomeSpec(0, 101, "dual-stack", DEVICES, fidelity=fidelity)),
    "run_home_faults": lambda fidelity: run_home_faults(
        FaultSpec(0, 101, "dual-stack", DEVICES, FAULTS, fidelity=fidelity)
    ),
    "run_home_epoch": lambda fidelity: run_home_epoch(
        EpochSpec(0, 0, 101, "dual-stack", DEVICES, fault_name="dns-blackout", exposure=True, fidelity=fidelity)
    ),
    "run_home_exposure": lambda fidelity: run_home_exposure(
        ExposureSpec(0, 101, "dual-stack", "pinhole", DEVICES, fault_name="dns-blackout", leak=True, fidelity=fidelity)
    ),
}


def unreachable_after(run) -> int:
    """What ``gc.collect()`` finds once ``run()`` has returned, with
    automatic collection off from before it starts."""
    assert active_cache() is None  # a cache keeps every artifact it stores
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
@pytest.mark.parametrize("worker", sorted(WORKERS))
def test_worker_leaves_no_cyclic_garbage(worker, fidelity):
    assert unreachable_after(lambda: WORKERS[worker](fidelity)) == 0


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


def _raising_home():
    with pytest.raises(RuntimeError, match="boom"):
        simulate_home(HomeSpec(0, 101, "dual-stack", DEVICES, fidelity="flow"))


def test_worker_whose_summary_raises_leaves_no_cyclic_garbage(monkeypatch):
    monkeypatch.setattr("repro.fleet.runner.summarize_home", _boom)
    assert unreachable_after(_raising_home) == 0


def test_worker_whose_simulation_raises_leaves_no_cyclic_garbage(monkeypatch):
    """An event that raises halfway through the run, as an expired home
    budget does, ends the run before the worker holds its study."""
    run_experiment = study.run_connectivity_experiment

    def interrupted(testbed, config):
        testbed.sim.schedule(500.0, _boom)
        return run_experiment(testbed, config)

    monkeypatch.setattr(study, "run_connectivity_experiment", interrupted)
    assert unreachable_after(_raising_home) == 0
