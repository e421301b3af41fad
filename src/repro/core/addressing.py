"""§5.2.1 addressing analysis: address counts, EUI-64, DAD compliance.

Address counting uses the :data:`~repro.core.analysis.ADDRESS_WINDOW`
(one IPv6-only plus one dual-stack run) so privacy-extension rotation is
counted once, mirroring Table 6 / Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis import ADDRESS_WINDOW, StudyAnalysis
from repro.core.capture import AddressRecordObs
from repro.core.meta import CATEGORY_ORDER
from repro.net.ip6 import AddressScope, mac_from_eui64


@dataclass
class DeviceAddressSummary:
    """Distinct addresses observed for one device across the window."""

    device: str
    records: dict = field(default_factory=dict)  # address -> merged observation

    def by_scope(self, scope: AddressScope) -> list[AddressRecordObs]:
        return [obs for obs in self.records.values() if obs.scope is scope]

    @property
    def total(self) -> int:
        return len(self.records)

    def count(self, scope: AddressScope) -> int:
        return len(self.by_scope(scope))


def collect_addresses(analysis: StudyAnalysis, window=ADDRESS_WINDOW) -> dict[str, DeviceAddressSummary]:
    """Merge per-experiment address observations (dedup by address value)."""
    summaries = {device: DeviceAddressSummary(device) for device in analysis.devices}
    for experiment in window:
        if experiment not in analysis.indexes:
            continue
        index = analysis.index(experiment)
        for device, table in index.addresses.items():
            if device not in summaries:
                continue
            merged = summaries[device].records
            for address, obs in table.items():
                existing = merged.get(address)
                if existing is None:
                    merged[address] = AddressRecordObs(
                        obs.address,
                        obs.scope,
                        dad_seen=obs.dad_seen,
                        used_for_data=obs.used_for_data,
                        used_for_dns=obs.used_for_dns,
                        used_at_all=obs.used_at_all,
                        first_seen=obs.first_seen,
                    )
                else:
                    existing.dad_seen = existing.dad_seen or obs.dad_seen
                    existing.used_for_data = existing.used_for_data or obs.used_for_data
                    existing.used_for_dns = existing.used_for_dns or obs.used_for_dns
                    existing.used_at_all = existing.used_at_all or obs.used_at_all
    return summaries


def table6_address_counts(analysis: StudyAnalysis) -> dict[str, dict]:
    """The address-count block of Table 6 (per category + total)."""
    summaries = collect_addresses(analysis)
    rows = {
        "# of IPv6 Addr": {},
        "# of GUA Addr": {},
        "# of ULA Addr": {},
        "# of LLA Addr": {},
    }
    for category in CATEGORY_ORDER:
        devices = [d for d in analysis.devices if analysis.metadata[d].category is category]
        rows["# of IPv6 Addr"][category] = sum(summaries[d].total for d in devices)
        rows["# of GUA Addr"][category] = sum(summaries[d].count(AddressScope.GUA) for d in devices)
        rows["# of ULA Addr"][category] = sum(summaries[d].count(AddressScope.ULA) for d in devices)
        rows["# of LLA Addr"][category] = sum(summaries[d].count(AddressScope.LLA) for d in devices)
    for row in rows.values():
        row["Total"] = sum(row.values())
    return rows


def figure3_address_cdf(analysis: StudyAnalysis) -> list[tuple[str, int]]:
    """Per-device address counts, ascending — the top CDF of Figure 3."""
    summaries = collect_addresses(analysis)
    counts = [(device, summary.total) for device, summary in summaries.items() if summary.total]
    return sorted(counts, key=lambda item: item[1])


@dataclass
class DadReport:
    """§5.2.1 DAD compliance findings."""

    addresses_without_dad: dict = field(default_factory=lambda: {"GUA": 0, "ULA": 0, "LLA": 0})
    devices_with_violation: set = field(default_factory=set)
    devices_never_dad: set = field(default_factory=set)


def dad_compliance(analysis: StudyAnalysis) -> DadReport:
    """Addresses used without a preceding DAD solicitation (RFC 4862)."""
    summaries = collect_addresses(analysis)
    report = DadReport()
    for device, summary in summaries.items():
        if not summary.records:
            continue
        any_dad = False
        any_violation = False
        for obs in summary.records.values():
            if obs.dad_seen:
                any_dad = True
                continue
            any_violation = True
            key = obs.scope.name if obs.scope.name in ("GUA", "ULA", "LLA") else None
            if key:
                report.addresses_without_dad[key] += 1
        if any_violation:
            report.devices_with_violation.add(device)
            if not any_dad:
                report.devices_never_dad.add(device)
    return report


def eui64_usage(analysis: StudyAnalysis) -> dict[str, dict]:
    """Per-device EUI-64 GUA assignment/usage (feeds Figure 5)."""
    summaries = collect_addresses(analysis)
    result: dict[str, dict] = {}
    for device, summary in summaries.items():
        mac = analysis.device_mac[device]
        gua_eui = [
            obs
            for obs in summary.by_scope(AddressScope.GUA)
            if mac_from_eui64(obs.address) == mac
        ]
        if not gua_eui:
            continue
        result[device] = {
            "assigned": True,
            "used": any(o.used_at_all for o in gua_eui),
            "dns": any(o.used_for_dns for o in gua_eui),
            "data": any(o.used_for_data for o in gua_eui),
            "addresses": [o.address for o in gua_eui],
        }
    return result


def lla_rotators(analysis: StudyAnalysis) -> list[str]:
    """Devices observed with more than one link-local address."""
    summaries = collect_addresses(analysis)
    return sorted(
        device for device, summary in summaries.items() if summary.count(AddressScope.LLA) > 1
    )
