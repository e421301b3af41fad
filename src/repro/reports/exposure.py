"""Population exposure report: the WAN attack surface per firewall mode."""

from __future__ import annotations

from repro.exposure.population import ExposureAggregate
from repro.reports.render import compose_report, format_table, run_counts


def render_exposure(aggregate: ExposureAggregate) -> str:
    """Per-firewall population table + per-address-kind breakdown."""
    rows = []
    for stats in aggregate.per_firewall:
        rows.append(
            [
                stats.firewall,
                stats.homes,
                stats.devices,
                stats.discoverable_devices,
                stats.responsive_devices,
                stats.reachable_devices,
                stats.open_tcp_ports,
                stats.open_udp_ports,
                stats.wan_dropped,
                f"{100.0 * stats.fraction_homes_reachable:.1f}%",
            ]
        )
    title = (
        f"WAN exposure: {aggregate.config_name}, "
        + run_counts(aggregate.completed, aggregate.total_runs, "home-scans", len(aggregate.failed))
    )
    table = format_table(
        title,
        [
            "Firewall",
            "Homes",
            "Devices",
            "Discov.",
            "Respond",
            "Reach.",
            "TCP open",
            "UDP open",
            "Dropped",
            "Homes w/ reach",
        ],
        rows,
    )

    kind_rows = []
    for stats in aggregate.per_firewall:
        for kind in stats.by_addr_kind:
            kind_rows.append([f"{stats.firewall}/{kind.kind}", kind.devices, kind.discoverable, kind.reachable])
    kinds = None
    if kind_rows:
        kinds = format_table(
            "Discovery by address type (firewall/kind)",
            ["Firewall/kind", "Devices", "Discoverable", "Reachable"],
            kind_rows,
        )
    return compose_report([table, kinds], failures=aggregate.failed)
