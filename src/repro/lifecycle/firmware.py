"""Firmware revisions: capability-profile transforms applied mid-timeline.

A :class:`FirmwareRevision` rewrites a :class:`~repro.devices.profile.DeviceProfile`
into the profile the device runs *after* an over-the-air update — the
paper's brick/recover story in reverse: a v4-only device that ships a
dual-stack firmware stops bricking when its ISP moves the home to
IPv6-only. Revisions are pure profile→profile functions, so the same
catalog drives a single lab study, the lifecycle timeline engine, and any
future what-if sweep. Profiles are frozen and shared by every home, so a
revision never edits one: it returns a new profile made with
``dataclasses.replace``, which keeps every other field, the MAC included.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.devices.profile import DeviceProfile, Phase


def _structural_aaaa_minimum(spec) -> int:
    """How many AAAA-bearing plans ``build_portfolio`` will construct once
    essential domains query AAAA (mirrors its structural accounting)."""
    overlap = min(spec.v4_to_v6_partial, spec.v6_to_v4_partial)
    return (
        spec.essential
        + spec.v4_to_v6_partial
        + spec.v6_to_v4_partial
        - overlap
        + spec.v4_to_v6_full
        + spec.v6_to_v4_full
        + spec.v6_steady
    )


def _v6_stack(profile: DeviceProfile) -> DeviceProfile:
    """The headline update: a v4-only stack becomes a capable dual-stack one.

    Phases gain NDP/SLAAC/DNS-over-v6/data-over-v6; the domain portfolio's
    essential destinations gain AAAA records (the vendor dual-stacked its
    cloud when it dual-stacked the firmware). The portfolio's AAAA counters
    are lifted to the new structural minimum so the spec stays consistent.
    """
    spec = profile.portfolio
    minimum = _structural_aaaa_minimum(spec)
    portfolio = dataclasses.replace(
        spec,
        essential_aaaa=True,
        essential_a_only=0,
        aaaa_v4only_names=0,
        aaaa_names=max(spec.aaaa_names, minimum),
        aaaa_resp_names=max(spec.aaaa_resp_names, minimum),
    )
    return dataclasses.replace(
        profile,
        v6only=Phase(
            ndp=True,
            addr=True,
            gua=True,
            ula=profile.v6only.ula,
            dns_v6=True,
            data_v6=True,
            local_v6=profile.v6only.local_v6,
            ntp_v6=profile.v6only.ntp_v6,
        ),
        dual=dataclasses.replace(profile.dual, ndp=True, addr=True, gua=True, dns_v6=True, data_v6=True),
        accept_rdnss=True,
        portfolio=portfolio,
    )


def _privacy_iid(profile: DeviceProfile) -> DeviceProfile:
    """Privacy update: MAC-derived global IIDs become RFC 8981 temporaries
    that rotate out (the exposure surface starts drifting)."""
    return dataclasses.replace(
        profile,
        gua_iid_mode="temporary",
        gua_addr_count=max(profile.gua_addr_count, 2),
        gua_rotate_out=True,
    )


def _resolver_hardening(profile: DeviceProfile) -> DeviceProfile:
    """Reliability update: a deeper DNS retry budget with gentler backoff."""
    return dataclasses.replace(
        profile,
        dns_retry_budget=max(profile.dns_retry_budget, 4),
        dns_backoff_base=min(profile.dns_backoff_base, 1.0),
    )


@dataclass(frozen=True)
class FirmwareRevision:
    """One catalog entry: a named, idempotent profile transform."""

    name: str
    description: str
    transform: Callable[[DeviceProfile], DeviceProfile]
    applies: Callable[[DeviceProfile], bool]


REVISIONS: dict[str, FirmwareRevision] = {
    revision.name: revision
    for revision in (
        FirmwareRevision(
            "v6-stack",
            "v4-only stack -> capable dual-stack (phases + AAAA portfolio)",
            _v6_stack,
            lambda p: not (p.v6only.dns_v6 and p.portfolio.essential_aaaa),
        ),
        FirmwareRevision(
            "privacy-iid",
            "EUI-64 global IIDs -> rotating RFC 8981 temporaries",
            _privacy_iid,
            lambda p: (p.gua_iid_mode or p.iid_mode) != "temporary" or not p.gua_rotate_out,
        ),
        FirmwareRevision(
            "resolver-hardening",
            "deeper DNS retry budget, gentler backoff",
            _resolver_hardening,
            lambda p: p.dns_retry_budget < 4,
        ),
    )
}


def get_revision(name: str) -> FirmwareRevision:
    try:
        return REVISIONS[name]
    except KeyError:
        known = ", ".join(sorted(REVISIONS))
        raise KeyError(f"unknown firmware revision {name!r} (known: {known})") from None


def upgrade_path(profile: DeviceProfile) -> tuple[str, ...]:
    """The revisions this device's vendor would ship, in release order."""
    return tuple(name for name, revision in REVISIONS.items() if revision.applies(profile))


def apply_revisions(profile: DeviceProfile, names: Sequence[str]) -> DeviceProfile:
    """Apply a cumulative revision history to a stock profile."""
    for name in names:
        profile = get_revision(name).transform(profile)
    return profile
