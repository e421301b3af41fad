"""The epoch engine: seeded event streams -> per-epoch simulator inputs.

A timeline advances one home through ``epochs`` discrete simulated months.
Each epoch is one full home study (the existing
:func:`~repro.testbed.study.run_home_study` machinery), but *what* gets
studied evolves between epochs along four seeded event streams:

- **churn** — devices leave and join the home;
- **firmware** — a device's vendor ships the next revision on its upgrade
  path, swapping its capability profile (``repro.lifecycle.firmware``);
- **rollout** — the ISP's wave schedule moves the home between network
  configs (``repro.lifecycle.rollout``);
- **faults** — an impairment preset fires in exactly the epochs where the
  home transitions (ISP maintenance windows are when things break).

Determinism contract (DESIGN.md §12): every stream is a dedicated
``random.Random(f"{seed}/lifecycle/<stream>/{home}")`` — churn, firmware
and the per-epoch simulator seeds never see the wave name or the epoch
count, so two waves (or two ``--epochs`` horizons) describe the *same homes
undergoing the same local events* and differ only where the rollout
differs. Wave positions are drawn per home once; cumulative stage
fractions then make a wider rollout transition a superset of a narrower
one. Each home's :class:`EpochSpec` tuple is a pure function of
``(index, seed, params)`` and each spec is picklable, so a shard can plan
and run any home without seeing the rest of the fleet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.devices import build_inventory, device_by_name
from repro.faults.schedule import get_fault
from repro.fleet.scenario import RolloutScenario, generate_home
from repro.lifecycle.firmware import upgrade_path
from repro.lifecycle.rollout import get_wave

# Homes never churn below this size: a "smart home" with one device left is
# a different study, not a smaller one.
MIN_HOME_SIZE = 2

# Bounds of a home's first-epoch portfolio size.
MIN_DEVICES = 3
MAX_DEVICES = 8


@dataclass(frozen=True)
class LifecycleParams:
    """Everything that shapes a timeline besides the seed and fleet size."""

    epochs: int = 6
    wave: str = "staged-v6only"
    leave_rate: float = 0.06     # per-device, per-epoch departure probability
    join_rate: float = 0.35      # per-home, per-epoch arrival probability
    update_rate: float = 0.18    # per-device, per-epoch firmware-update probability
    fault_name: str = "none"     # preset injected in each home's transition epochs
    exposure: bool = False       # WAN-scan every epoch (v6-capable configs)
    rotation: bool = True        # RFC 8981 rotate-out on privacy-addressed devices
    fidelity: str = "packet"     # simulation fidelity for every epoch run

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("leave_rate", "join_rate", "update_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        get_wave(self.wave)       # raises on unknown names before any work
        get_fault(self.fault_name)


@dataclass(frozen=True)
class EpochSpec:
    """One (home, epoch) cell: a seeded, picklable simulator input."""

    home_id: int
    epoch: int
    sim_seed: int
    config_name: str
    device_names: tuple[str, ...]
    # cumulative firmware history: (device name, revision names applied)
    firmware: tuple[tuple[str, tuple[str, ...]], ...] = ()
    transitioned: bool = False    # config differs from the previous epoch
    fault_name: str = "none"
    exposure: bool = False
    rotation: bool = True
    fidelity: str = "packet"


def _churn(members: list[str], rng: random.Random, params: LifecycleParams, pool: Sequence[str]) -> list[str]:
    """One epoch of membership churn; draws in sorted order for determinism."""
    survivors: list[str] = []
    for processed, name in enumerate(members):
        # A device may only leave while the home would stay at MIN_HOME_SIZE.
        if_it_stays = len(survivors) + (len(members) - processed)
        if if_it_stays - 1 >= MIN_HOME_SIZE and rng.random() < params.leave_rate:
            continue
        survivors.append(name)
    if rng.random() < params.join_rate:
        absent = [name for name in pool if name not in survivors]
        if absent:
            survivors.append(absent[rng.randrange(len(absent))])
    return survivors


def build_timeline(index: int, seed: int, params: LifecycleParams) -> tuple[EpochSpec, ...]:
    """Plan one home's epochs; fully determined by ``(seed, index, params)``."""
    wave = get_wave(params.wave)
    pool = [profile.name for profile in build_inventory()]

    scenario = RolloutScenario(
        name="lifecycle",
        config_mix=((wave.base_config, 1.0),),
        min_devices=MIN_DEVICES,
        max_devices=MAX_DEVICES,
    )
    home = generate_home(index, seed, scenario)
    position = random.Random(f"{seed}/lifecycle/wave/{index}").random()
    churn_rng = random.Random(f"{seed}/lifecycle/churn/{index}")
    firmware_rng = random.Random(f"{seed}/lifecycle/firmware/{index}")

    members = list(home.device_names)
    history: dict[str, tuple[str, ...]] = {}
    specs: list[EpochSpec] = []
    previous_config = wave.config_at(0, position)
    for epoch in range(params.epochs):
        if epoch > 0:
            members = _churn(members, churn_rng, params, pool)
            for name in sorted(members):
                if firmware_rng.random() < params.update_rate:
                    applied = history.get(name, ())
                    pending = [r for r in upgrade_path(device_by_name(name)) if r not in applied]
                    if pending:
                        history[name] = applied + (pending[0],)
        config_name = wave.config_at(epoch, position)
        transitioned = epoch > 0 and config_name != previous_config
        previous_config = config_name
        sim_seed = random.Random(f"{seed}/lifecycle/sim/{index}/{epoch}").getrandbits(32)
        specs.append(
            EpochSpec(
                home_id=index,
                epoch=epoch,
                sim_seed=sim_seed,
                config_name=config_name,
                device_names=tuple(members),
                firmware=tuple(sorted((name, history[name]) for name in members if name in history)),
                transitioned=transitioned,
                fault_name=params.fault_name if (transitioned and params.fault_name != "none") else "none",
                exposure=params.exposure,
                rotation=params.rotation,
                fidelity=params.fidelity,
            )
        )
    return tuple(specs)
