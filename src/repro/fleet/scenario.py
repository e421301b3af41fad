"""Seeded synthetic-home generation and ISP rollout scenarios.

The paper measures one 93-device lab; the fleet subsystem asks the same
questions at population scale. A :class:`RolloutScenario` describes how a
residential ISP distributes network configurations over its customer base
(e.g. "flip 50% of homes from dual-stack to IPv6-only"); ``generate_fleet``
expands it into N :class:`HomeSpec`\\ s, each a synthetic smart home whose
device portfolio is sampled from the 93-device inventory.

Determinism contract:

- the same ``(seed, scenario, index)`` always yields the same home — every
  home derives its own RNG stream, so a fleet of 5 is a strict prefix of a
  fleet of 50 generated from the same seed;
- both the *portfolio* stream and the per-home *config draw* depend only on
  ``(seed, index)`` — never on the scenario — so sweeping scenarios at a
  fixed seed compares the **same home population** under different rollouts
  (paired counterfactuals), and a home flipped to IPv6-only at ``flip25``
  stays flipped at every higher fraction (common random numbers, so sweep
  curves are monotone rather than resampling noise);
- specs carry only plain values (names, ints), so they pickle cheaply into
  worker processes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.devices import build_inventory
from repro.devices.profile import Category
from repro.stack.config import ALL_CONFIGS

_CONFIG_NAMES = {config.name for config in ALL_CONFIGS}

# Relative household popularity of each device category (how likely a random
# smart home is to own another device of this kind).
CATEGORY_WEIGHTS = {
    Category.HOME_AUTO: 1.5,
    Category.CAMERA: 1.3,
    Category.SPEAKER: 1.2,
    Category.TV: 1.2,
    Category.APPLIANCE: 0.7,
    Category.GATEWAY: 0.6,
    Category.HEALTH: 0.5,
}

# Homes cluster on ecosystems: once a manufacturer is present, further
# devices from the same manufacturer are this much more likely.
SAME_MANUFACTURER_BOOST = 1.8

# Categories a home's first device (its "hub") is drawn from.
HUB_CATEGORIES = (Category.SPEAKER, Category.GATEWAY)


@dataclass(frozen=True)
class HomeSpec:
    """One synthetic home: a seeded simulator input, nothing derived."""

    home_id: int
    sim_seed: int
    config_name: str
    device_names: tuple[str, ...]
    fidelity: str = "packet"


@dataclass(frozen=True)
class RolloutScenario:
    """How an ISP's customer base is spread over network configurations.

    ``config_mix`` maps Table-2 config names to relative weights; each home
    draws its config from this distribution. ``min_devices``/``max_devices``
    bound the sampled portfolio size.
    """

    name: str
    config_mix: tuple[tuple[str, float], ...]
    min_devices: int = 3
    max_devices: int = 14
    description: str = ""

    def __post_init__(self):
        if not self.config_mix:
            raise ValueError("config_mix must not be empty")
        for config_name, weight in self.config_mix:
            if config_name not in _CONFIG_NAMES:
                raise ValueError(f"unknown config {config_name!r} in scenario {self.name!r}")
            if weight < 0:
                raise ValueError(f"negative weight for {config_name!r}")
        if sum(weight for _, weight in self.config_mix) <= 0:
            raise ValueError("config_mix weights sum to zero")
        if not 1 <= self.min_devices <= self.max_devices:
            raise ValueError("need 1 <= min_devices <= max_devices")

    def draw_config(self, rng: random.Random) -> str:
        total = sum(weight for _, weight in self.config_mix)
        point = rng.random() * total
        cumulative = 0.0
        for config_name, weight in self.config_mix:
            cumulative += weight
            if point < cumulative:
                return config_name
        return self.config_mix[-1][0]


def ipv6_only_flip(fraction: float, *, baseline: str = "dual-stack") -> RolloutScenario:
    """The paper's headline rollout question: the ISP flips ``fraction`` of
    its dual-stack homes to IPv6-only."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"flip fraction must be in [0, 1], got {fraction}")
    percent = int(round(fraction * 100))
    mix = []
    if fraction < 1.0:
        mix.append((baseline, 1.0 - fraction))
    if fraction > 0.0:
        mix.append(("ipv6-only", fraction))
    return RolloutScenario(
        name=f"flip{percent}",
        config_mix=tuple(mix),
        description=f"ISP flips {percent}% of dual-stack homes to IPv6-only",
    )


SCENARIOS: dict[str, RolloutScenario] = {
    scenario.name: scenario
    for scenario in (
        RolloutScenario(
            "baseline",
            (("dual-stack", 1.0),),
            description="every home on plain dual-stack",
        ),
        RolloutScenario(
            "legacy",
            (("ipv4-only", 0.6), ("dual-stack", 0.4)),
            description="a lagging ISP: mostly IPv4-only, some dual-stack",
        ),
        ipv6_only_flip(0.25),
        ipv6_only_flip(0.50),
        ipv6_only_flip(0.75),
        RolloutScenario(
            "ipv6-only",
            (("ipv6-only", 1.0),),
            description="the end state: every home IPv6-only",
        ),
        RolloutScenario(
            "stateful-rollout",
            (("dual-stack-stateful", 0.5), ("ipv6-only-stateful", 0.5)),
            description="an ISP that deploys stateful DHCPv6 everywhere",
        ),
    )
}

_FLIP_PATTERN = re.compile(r"^flip(\d{1,3})$")


def get_scenario(name: str) -> RolloutScenario:
    """Resolve a scenario by name; ``flipNN`` is parsed for any NN in 0..100."""
    if name in SCENARIOS:
        return SCENARIOS[name]
    match = _FLIP_PATTERN.match(name)
    if match and int(match.group(1)) <= 100:
        return ipv6_only_flip(int(match.group(1)) / 100.0)
    known = ", ".join(sorted(SCENARIOS))
    raise KeyError(f"unknown scenario {name!r} (known: {known}, or flipNN)")


# ------------------------------------------------------------------ sampling


def _draw_size(rng: random.Random, scenario: RolloutScenario) -> int:
    sizes = range(scenario.min_devices, scenario.max_devices + 1)
    mode = scenario.min_devices + max(1, (scenario.max_devices - scenario.min_devices) // 3)
    weights = [1.0 / (1.0 + abs(size - mode)) for size in sizes]
    return rng.choices(list(sizes), weights=weights)[0]


def _weighted_pick(rng: random.Random, pool: list, manufacturers: set) -> object:
    weights = [
        CATEGORY_WEIGHTS[profile.category]
        * (SAME_MANUFACTURER_BOOST if profile.manufacturer in manufacturers else 1.0)
        for profile in pool
    ]
    return rng.choices(pool, weights=weights)[0]


def generate_home(index: int, seed: int, scenario: RolloutScenario, *, fidelity: str = "packet") -> HomeSpec:
    """Sample one home; fully determined by ``(seed, scenario.name, index)``.

    Both RNG streams deliberately exclude the scenario name: the portfolio
    (and simulator seed) stream so that every scenario sees identical homes,
    and the config-draw stream so that scenarios sharing a ``config_mix``
    ordering couple their assignments (a home flipped at ``flip25`` is still
    flipped at ``flip75``) — rollout sweeps compare like with like.
    """
    rng = random.Random(f"{seed}/home/{index}")
    config_rng = random.Random(f"{seed}/config/{index}")
    inventory = build_inventory()
    size = min(_draw_size(rng, scenario), len(inventory))

    picked = []
    manufacturers: set[str] = set()
    pool = list(inventory)

    # Most homes anchor on a hub — a speaker or gateway — then accrete
    # devices with a bias toward categories people actually buy and toward
    # manufacturers already present (ecosystem lock-in).
    hubs = [profile for profile in pool if profile.category in HUB_CATEGORIES]
    if hubs and size > 1:
        hub = rng.choice(hubs)
        picked.append(hub)
        manufacturers.add(hub.manufacturer)
        pool.remove(hub)

    while len(picked) < size:
        choice = _weighted_pick(rng, pool, manufacturers)
        picked.append(choice)
        manufacturers.add(choice.manufacturer)
        pool.remove(choice)

    return HomeSpec(
        home_id=index,
        sim_seed=rng.getrandbits(32),
        config_name=scenario.draw_config(config_rng),
        device_names=tuple(profile.name for profile in picked),
        fidelity=fidelity,
    )


def generate_fleet(
    homes: int, *, seed: int, scenario: RolloutScenario, fidelity: str = "packet"
) -> list[HomeSpec]:
    """Generate ``homes`` specs; a prefix-stable function of ``seed``.

    ``fidelity`` rides along on every spec untouched by the RNG streams, so
    packet and flow fleets describe the same home population."""
    if homes < 0:
        raise ValueError("homes must be >= 0")
    return [generate_home(index, seed, scenario, fidelity=fidelity) for index in range(homes)]
