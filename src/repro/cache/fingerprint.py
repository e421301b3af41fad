"""Canonical fingerprints over study input closures.

A fingerprint must satisfy two properties the property tests in
``tests/cache/test_fingerprint.py`` pin down:

- **extensional equality** — two closures that would drive byte-identical
  simulations hash identically, however their values were constructed
  (dict insertion order, set order, list vs tuple, independently rebuilt
  profile objects);
- **sensitivity** — flipping any semantically meaningful field (the seed,
  the firewall mode, the fidelity, one profile attribute, one fault
  window) changes the hash.

Canonicalization is structural: dataclasses decompose into
``(qualified-name, sorted field items)``, MAC addresses reduce to their
string, mappings and sets sort their items, sequences keep their order
(device order is the order hosts join the LAN and schedule their timers,
so it orders simultaneous events and is part of the closure), module-level
functions reduce to ``(module, qualname)`` and partials to their function
and arguments. Anything else — lambdas and closures included — is refused
with ``TypeError`` rather than hashed by ``repr``: a memory address in a
fingerprint disables every hit.

The **code epoch**, a digest of the package source, is stamped into every
cache entry and journal manifest, so state written by other code is never
reused — and a function's name identifies its code.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import ipaddress
import types
from pathlib import Path

from repro.net.mac import MacAddress

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def _source_epoch(root: Path) -> str:
    """A sha256 over the sorted (relative path, bytes) pairs of ``root``'s ``.py`` files."""
    sha = hashlib.sha256()
    for name in sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py")):
        blob = (root / name).read_bytes()
        sha.update(f"{name}\0{len(blob)}\0".encode("utf-8"))
        sha.update(blob)
    return sha.hexdigest()[:16]


@functools.cache
def code_epoch() -> str:
    """The token naming this package's code, hashed once per process on first use."""
    return _source_epoch(_PACKAGE_ROOT)


def canonical(value):
    """Reduce ``value`` to a nested-tuple normal form with stable ``repr``.

    Equal closures canonicalize equal; unsupported types raise
    ``TypeError`` so non-deterministic reprs can never leak into a key.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, enum.Enum):
        return ("enum", type(value).__qualname__, value.value)
    if isinstance(value, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        return ("ip", str(value))
    if isinstance(value, (ipaddress.IPv4Network, ipaddress.IPv6Network)):
        return ("net", str(value))
    if isinstance(value, MacAddress):
        return ("mac", str(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Declared fields only: an attribute set after construction is
        # runtime state, not input.
        items = tuple(
            (field.name, canonical(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
        return ("dc", type(value).__qualname__, items)
    if isinstance(value, dict):
        items = tuple((canonical(k), canonical(v)) for k, v in value.items())
        return ("map", tuple(sorted(items, key=repr)))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((canonical(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical(v) for v in value))
    if isinstance(value, functools.partial):
        return ("partial", canonical(value.func), canonical(value.args), canonical(value.keywords))
    if isinstance(value, types.FunctionType) and "<" not in value.__qualname__:
        # "<lambda>" / "<locals>": a name that cannot see the captured state.
        return ("fn", value.__module__, value.__qualname__)
    raise TypeError(
        f"cannot canonicalize {type(value).__qualname__!r} for a fingerprint; "
        "pass plain values, dataclasses, mappings, sequences, or module-level functions"
    )


def digest(*parts) -> str:
    """A hex sha256 over the canonical form of ``parts``."""
    blob = repr(tuple(canonical(part) for part in parts)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def study_fingerprint(
    *,
    sim_seed: int,
    config,
    profiles,
    fault_schedule=None,
    extra=(),
) -> str:
    """Fingerprint one home study's full input closure.

    ``config`` must be the *resolved* :class:`~repro.stack.config.NetworkConfig`
    with firewall and fidelity already applied — the closure hashes what the
    simulator will actually see, not the CLI spelling. ``profiles`` are the
    concrete :class:`~repro.devices.profile.DeviceProfile` objects in device
    order (contents hash, so firmware-transformed lifecycle profiles get
    their own keys). ``extra`` carries worker-specific closure items such as
    whether an exposure scan replays leaked addresses.
    """
    return digest(
        "study",
        sim_seed,
        config,
        tuple(profiles),
        fault_schedule,
        tuple(extra),
    )
