"""§5.2.2 DNS analysis: distinct query names per device/transport family."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analysis import StudyAnalysis, V6_ENABLED_EXPERIMENTS
from repro.core.meta import CATEGORY_ORDER
from repro.net.dns import TYPE_A, TYPE_AAAA, TYPE_HTTPS, TYPE_SVCB


@dataclass
class DeviceDnsSummary:
    """Distinct DNS query names for one device across experiments."""

    device: str
    aaaa_v6: set = field(default_factory=set)
    aaaa_v4: set = field(default_factory=set)
    a_v6: set = field(default_factory=set)
    a_v4: set = field(default_factory=set)
    https_svcb: set = field(default_factory=set)
    answered_aaaa: set = field(default_factory=set)
    answered_aaaa_v6: set = field(default_factory=set)

    @property
    def aaaa_all(self) -> set:
        return self.aaaa_v6 | self.aaaa_v4

    @property
    def aaaa_over_v4(self) -> set:
        """Names carried over the IPv4 resolver (the paper's 334)."""
        return self.aaaa_v4

    @property
    def a_only_v6(self) -> set:
        return self.a_v6 - self.aaaa_all


def collect_dns(analysis: StudyAnalysis, experiments=V6_ENABLED_EXPERIMENTS) -> dict[str, DeviceDnsSummary]:
    summaries = {device: DeviceDnsSummary(device) for device in analysis.devices}
    for experiment in experiments:
        if experiment not in analysis.indexes:
            continue
        index = analysis.index(experiment)
        for query in index.dns_queries:
            summary = summaries.get(query.device)
            if summary is None:
                continue
            if query.qtype == TYPE_AAAA:
                (summary.aaaa_v6 if query.family == 6 else summary.aaaa_v4).add(query.name)
            elif query.qtype == TYPE_A:
                (summary.a_v6 if query.family == 6 else summary.a_v4).add(query.name)
            elif query.qtype in (TYPE_HTTPS, TYPE_SVCB):
                summary.https_svcb.add(query.name)
        for response in index.dns_responses:
            summary = summaries.get(response.device)
            if summary is None or response.qtype != TYPE_AAAA or not response.answered:
                continue
            summary.answered_aaaa.add(response.name)
            if response.family == 6:
                summary.answered_aaaa_v6.add(response.name)
    return summaries


def table6_dns_counts(analysis: StudyAnalysis) -> dict[str, dict]:
    """The distinct-query-name block of Table 6 (per category + total)."""
    summaries = collect_dns(analysis)
    rows = {
        "# of AAAA DNS Req": {},
        "# of A-only Req in IPv6": {},
        "# of IPv4-only AAAA Req": {},
        "# of AAAA DNS Res": {},
    }
    for category in CATEGORY_ORDER:
        devices = [d for d in analysis.devices if analysis.metadata[d].category is category]
        rows["# of AAAA DNS Req"][category] = sum(len(summaries[d].aaaa_all) for d in devices)
        rows["# of A-only Req in IPv6"][category] = sum(len(summaries[d].a_only_v6) for d in devices)
        rows["# of IPv4-only AAAA Req"][category] = sum(len(summaries[d].aaaa_over_v4) for d in devices)
        rows["# of AAAA DNS Res"][category] = sum(len(summaries[d].answered_aaaa) for d in devices)
    for row in rows.values():
        row["Total"] = sum(row.values())
    return rows


def figure3_query_cdf(analysis: StudyAnalysis) -> list[tuple[str, int]]:
    """Per-device distinct AAAA query counts — the bottom CDF of Figure 3."""
    summaries = collect_dns(analysis)
    counts = [(d, len(s.aaaa_all)) for d, s in summaries.items() if s.aaaa_all]
    return sorted(counts, key=lambda item: item[1])
