"""repro.exposure — the WAN-side attack-surface subsystem.

The paper scans devices from *inside* the LAN (§4.3); this package asks the
question NAT44's disappearance raises: what can an attacker on the open
Internet discover and reach once the home is on routed IPv6? It combines

- :mod:`repro.stack.firewall` — the router's WAN forwarding policies
  (``open`` / ``stateful`` / ``pinhole``), crossed with every Table-2
  configuration;
- :mod:`repro.exposure.wanscan` — a simulated internet-origin attacker:
  EUI-64 / low-IID address synthesis from OUI knowledge, then real ICMPv6
  echo, TCP SYN and UDP probes injected on the WAN side of the router;
- :mod:`repro.exposure.analysis` — per-home exposure summaries and the
  picklable per-home worker;
- :mod:`repro.exposure.population` — fleet-scale exposure analytics
  (fraction of homes with an internet-reachable device, broken down by
  firewall mode and address type).
"""

from repro.exposure.analysis import (
    DeviceExposure,
    HomeExposure,
    effective_pinholes,
    run_home_exposure,
    summarize_exposure,
)
from repro.exposure.population import (
    ExposureAggregate,
    ExposureFold,
    ExposureSpec,
    FirewallStats,
    run_exposure_stream,
)
from repro.exposure.wanscan import (
    AttackerKnowledge,
    ExposureReport,
    WanScanResult,
    WanScanner,
    inventory_oui_knowledge,
)

__all__ = [
    "AttackerKnowledge",
    "DeviceExposure",
    "ExposureAggregate",
    "ExposureFold",
    "ExposureReport",
    "ExposureSpec",
    "FirewallStats",
    "HomeExposure",
    "WanScanResult",
    "WanScanner",
    "effective_pinholes",
    "inventory_oui_knowledge",
    "run_exposure_stream",
    "run_home_exposure",
    "summarize_exposure",
]
