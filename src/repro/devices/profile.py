"""Device profile datatypes.

A :class:`DeviceProfile` is the curated ground truth for one testbed device:

- identity (category, manufacturer, platform, OS, purchase year — the
  grouping keys of Tables 3, 5, 8, 12, 13) and the MAC its EUI-64
  addresses embed (§5.4.1);
- addressing mechanics (interface-identifier mode, DAD policy, DHCPv6
  support, RDNSS support, address rotation counts);
- two :class:`Phase` blocks describing observable behaviour in IPv6-only and
  dual-stack networks (the per-device columns of Table 10 and the deltas of
  Table 4);
- a :class:`PortfolioSpec` describing the structure of its destination-domain
  portfolio (the per-category counts of Tables 6, 7, 9 and Figures 3–5).

Profiles are frozen. :func:`~repro.devices.inventory.build_inventory` builds
the 93 of them once per process and every home shares those objects, so a
variant (a firmware revision, an ablation) is a new profile made with
``dataclasses.replace``.

The analysis pipeline never reads profiles; they only drive the simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.net.mac import MacAddress


class Category(str, enum.Enum):
    """The seven device categories of the paper."""

    APPLIANCE = "Appliance"
    CAMERA = "Camera"
    TV = "TV/Ent."
    GATEWAY = "Gateway"
    HEALTH = "Health"
    HOME_AUTO = "Home Auto"
    SPEAKER = "Speaker"


CATEGORIES = list(Category)


class Party(str, enum.Enum):
    """Destination-party taxonomy of §5.4 (after Ren et al.)."""

    FIRST = "first"
    SUPPORT = "support"
    THIRD = "third"


@dataclass(frozen=True)
class Phase:
    """Observable IPv6 behaviour of a device in one network class.

    ``ndp``/``addr``/``gua`` gate the addressing pipeline; ``dns_v6`` means
    the device uses an IPv6 resolver transport; ``aaaa_v4`` means it issues
    AAAA queries over its IPv4 resolver (dual-stack only); ``data_v6`` /
    ``local_v6`` are Internet/local TCP-UDP transmission over IPv6; ``ntp_v6``
    marks hardcoded-literal IPv6 NTP (data without DNS).
    """

    ndp: bool = False
    addr: bool = False
    gua: bool = False
    ula: bool = False
    dns_v6: bool = False
    aaaa_v4: bool = False
    data_v6: bool = False
    local_v6: bool = False
    ntp_v6: bool = False


NO_IPV6 = Phase()


@dataclass(frozen=True)
class PortfolioSpec:
    """Cardinalities of a device's destination-domain portfolio.

    All counts are *distinct domains*. The portfolio generator
    (:mod:`repro.devices.portfolio`) turns these into concrete
    :class:`DomainPlan` lists whose category-level sums reproduce the
    aggregate cells of Tables 6, 7 and 9.
    """

    total: int = 4                # distinct destinations across all experiments
    essential: int = 2            # required for the primary function
    essential_aaaa: bool = False  # do the essential domains have AAAA records?
    essential_a_only: int = 0     # essentials with AAAA that are never AAAA-queried

    # DNS structure (distinct query names)
    aaaa_names: int = 0           # names ever queried for AAAA
    aaaa_resp_names: int = 0      # ... of which have AAAA records
    aaaa_v4only_names: int = 0    # ... queried for AAAA only over IPv4
    a_only_v6_names: int = 0      # names A-queried over IPv6, never AAAA

    # dual-stack transition structure (Table 9 numerators)
    v4_to_v6_partial: int = 0
    v4_to_v6_full: int = 0
    v6_to_v4_partial: int = 0
    v6_to_v4_full: int = 0
    v4only_with_aaaa: int = 0     # stay on IPv4 although AAAA exists
    v6_steady: int = 0            # v6 in both single- and dual-stack (no switch)

    # privacy structure
    third: int = 1                # third-party destinations (trackers etc.)
    support: int = 1              # support-party destinations (CDN/NTP)
    tracking_v4only: int = 0      # third-party SLDs that vanish in IPv6-only
    v6_third: int = 0             # steady v6 domains that are third party
    v6_support: int = 0           # steady v6 domains that are support party
    tel_third: int = 0            # query-only names that are third party
    tel_support: int = 0          # query-only names that are support party

    # hardcoded-literal IPv6 destinations (TLS SNI visible, no DNS)
    v6_literal_names: int = 0
    v6_literal_with_v4: int = 0   # literal relays that also have an A record

    # dual-stack volume model
    volume: int = 200_000         # bytes of Internet app data per experiment
    v6_volume_fraction: float = 0.0


@dataclass
class DomainPlan:
    """One concrete destination domain and the device's behaviour toward it."""

    name: str
    party: Party = Party.FIRST
    essential: bool = False
    has_a: bool = True
    has_aaaa: bool = False

    # DNS behaviour
    queries_aaaa: bool = False      # device ever asks AAAA for this name
    aaaa_transport_dual: str = "v6"  # "v6" | "v4": resolver family in dual-stack
    a_only_in_v6: bool = False      # A query over IPv6, never AAAA

    # presence + data version per network class
    in_v4only: bool = True          # contacted in the IPv4-only experiment
    in_v6only: bool = False         # contacted (attempted) in IPv6-only
    data_v6_in_v6only: bool = False
    data_v4_in_dual: bool = True
    data_v6_in_dual: bool = False
    v6_literal: bool = False        # contacted via hardcoded IPv6 (SNI only)

    # volume per check-in cycle in dual-stack (bytes)
    bytes_v4: int = 0
    bytes_v6: int = 0


@dataclass(frozen=True)
class DeviceProfile:
    """Ground truth for one testbed device."""

    name: str
    category: Category
    manufacturer: str
    platform: str = ""
    os: str = ""
    purchase_year: int = 2021
    # the hardware address its EUI-64 identifiers embed (None: never on a LAN)
    mac: Optional[MacAddress] = None

    # addressing mechanics
    iid_mode: str = "eui64"          # "eui64" | "temporary" | "stable"
    gua_iid_mode: str = ""           # per-scope override (EUI-64 LLA + privacy GUA)
    form_lla: bool = True            # a few devices use only GUA/ULA (§5.2.1)
    gua_addr_count: int = 1          # GUAs formed over a run (rotation)
    gua_rotation_fast: bool = False  # rotate before the first check-in, so the
                                     # EUI-64 GUA is assigned but never used
    gua_rotate_out: bool = False     # RFC 8981 deprecate-then-remove of the
                                     # previous temporary on each rotation
    ula_addr_count: int = 1
    lla_count: int = 1               # total LLAs over a run (rotation)
    dad_enabled: bool = True
    dad_skip_scopes: tuple = ()      # e.g. ("GUA",) — skip DAD per scope
    dhcpv6_stateless: bool = False
    dhcpv6_stateful: bool = False
    use_dhcpv6_address: bool = False
    accept_rdnss: bool = True

    # open services (the §5.4.2 port scans)
    open_tcp_v4: tuple = ()
    open_tcp_v6: tuple = ()
    open_udp_v4: tuple = ()
    open_udp_v6: tuple = ()

    # fault recovery behaviour (repro.faults): how hard the firmware fights
    # an outage. Retries are invisible in clean runs (no timeouts ever fire);
    # under impairment they produce the paper's query storms. The jitter and
    # the happy-eyeballs v6->v4 rescue are the same for every device
    # (repro.stack.host.DNS_BACKOFF_JITTER, repro.devices.device).
    dns_retry_budget: int = 2
    dns_backoff_base: float = 2.0

    # per-network-class observable behaviour
    v6only: Phase = NO_IPV6
    dual: Optional[Phase] = None     # defaults to v6only when omitted

    # destination portfolio
    portfolio: PortfolioSpec = field(default_factory=PortfolioSpec)
    vendor_zone: str = ""            # DNS suffix for first-party domains

    def __post_init__(self):
        if self.dual is None:
            object.__setattr__(self, "dual", self.v6only)
        if not self.vendor_zone:
            slug = self.manufacturer.split("/")[0].lower().replace(" ", "").replace(".", "")
            object.__setattr__(self, "vendor_zone", f"{slug}.example")

    @property
    def slug(self) -> str:
        return self.name.lower().replace(" ", "-").replace("/", "-")

    def phase_for(self, network) -> Phase:
        """The behaviour phase for a router NetworkConfig (or its name)."""
        name = getattr(network, "name", network)
        if name == "ipv4-only":
            return NO_IPV6
        if name.startswith("ipv6-only"):
            return self.v6only
        return self.dual
