"""Configuration dataclasses for hosts and for the router's network modes.

``NetworkConfig`` mirrors Table 2 of the paper — which protocol families and
configuration services the router offers in a given experiment.
``StackConfig`` captures the *capabilities* of one host's network stack; the
93 device profiles map onto these fields (see ``repro.devices``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class NetworkConfig:
    """One row of Table 2: what the router offers on the LAN.

    ``firewall`` selects the WAN-side IPv6 forwarding policy
    (:mod:`repro.stack.firewall`): ``open`` (plain routed /64, the paper
    testbed's behaviour), ``stateful`` (default-deny inbound) or ``pinhole``
    (stateful plus UPnP/PCP-style per-device holes). Every Table-2
    configuration can be crossed with every firewall mode via
    :func:`with_firewall`.
    """

    name: str
    ipv4: bool
    slaac_rdnss: bool
    stateless_dhcpv6: bool
    stateful_dhcpv6: bool
    firewall: str = "open"
    # Simulation fidelity (repro.stack.flowpath): "packet" runs every frame
    # as an event; "flow" advances steady-state data flows as aggregate flow
    # records while all control-plane traffic stays packet-level.
    fidelity: str = "packet"

    @property
    def ipv6(self) -> bool:
        return self.slaac_rdnss or self.stateless_dhcpv6 or self.stateful_dhcpv6

    @property
    def dual_stack(self) -> bool:
        return self.ipv4 and self.ipv6


def with_firewall(config: NetworkConfig, mode: str) -> NetworkConfig:
    """Cross a Table-2 configuration with a WAN firewall mode."""
    from repro.stack.firewall import FIREWALL_MODES

    if mode not in FIREWALL_MODES:
        raise ValueError(f"unknown firewall mode {mode!r} (known: {', '.join(FIREWALL_MODES)})")
    return replace(config, firewall=mode)


# Simulation fidelity modes: how the testbed advances steady-state traffic.
FIDELITY_MODES = ("packet", "flow")


def with_fidelity(config: NetworkConfig, mode: str) -> NetworkConfig:
    """Cross a Table-2 configuration with a simulation fidelity mode."""
    if mode not in FIDELITY_MODES:
        raise ValueError(f"unknown fidelity mode {mode!r} (known: {', '.join(FIDELITY_MODES)})")
    return replace(config, fidelity=mode)


# The six connectivity experiments of Table 2.
IPV4_ONLY = NetworkConfig("ipv4-only", True, False, False, False)
IPV6_ONLY = NetworkConfig("ipv6-only", False, True, True, False)
IPV6_ONLY_RDNSS = NetworkConfig("ipv6-only-rdnss", False, True, False, False)
IPV6_ONLY_STATEFUL = NetworkConfig("ipv6-only-stateful", False, True, True, True)
DUAL_STACK = NetworkConfig("dual-stack", True, True, True, False)
DUAL_STACK_STATEFUL = NetworkConfig("dual-stack-stateful", True, True, True, True)

ALL_CONFIGS = [IPV4_ONLY, IPV6_ONLY, IPV6_ONLY_RDNSS, IPV6_ONLY_STATEFUL, DUAL_STACK, DUAL_STACK_STATEFUL]


@dataclass
class StackConfig:
    """The IPv6/IPv4 capabilities of one host's network stack.

    Defaults describe a fully capable modern host (a laptop or phone); device
    profiles switch features off to model the incomplete implementations the
    paper observed.
    """

    # IPv6 base (IPv4 is always on)
    ipv6_enabled: bool = True       # emits any IPv6 traffic, Neighbor Discovery included
    forms_addresses: bool = True    # False: multicasts NDP from "::" only

    # SLAAC
    form_lla: bool = True
    accept_gua_prefix: bool = True      # autoconfigure from RA PIO
    iid_mode: str = "eui64"             # "eui64" | "temporary" | "stable"
    gua_iid_mode: str = ""              # override for global addresses (e.g.
                                        # Android: EUI-64 LLA, privacy GUA)
    temporary_addr_count: int = 1       # total GUAs generated over a run
    temporary_spread: float = 900.0     # window over which extra GUAs appear
    temporary_start: float = 250.0      # delay before the first extra GUA
    lla_rotations: int = 0              # times the LLA is re-generated mid-run

    # RFC 8981 rotate-out: when a fresh temporary GUA forms, deprecate the
    # previous temporaries on that prefix (kept for established flows, never
    # preferred for new ones) and remove them ``temporary_valid_tail``
    # seconds later. Off by default — the paper's testbed devices accumulate
    # addresses within one experiment window; the lifecycle subsystem turns
    # this on to make the exposure surface drift between epochs.
    temporary_rotate_out: bool = False
    temporary_valid_tail: float = 200.0

    # ULA (Matter/HomeKit-style local fabric)
    form_ula: bool = False
    ula_prefix_seed: str = ""           # device fabric identity
    ula_addr_count: int = 1

    # DAD (RFC 4862)
    dad_enabled: bool = True
    dad_skip_scopes: frozenset = frozenset()   # AddressScope values to skip DAD for

    # DHCPv6
    dhcpv6_stateless: bool = True       # sends INFORMATION-REQUEST when O=1
    dhcpv6_stateful: bool = False       # runs SOLICIT/REQUEST when M=1
    use_dhcpv6_address: bool = False    # actually sources traffic from the lease

    # DNS
    accept_rdnss: bool = True           # learns resolvers from RA RDNSS

    # DNS retry behaviour (repro.faults): a query unanswered after
    # ``repro.stack.host.DNS_TIMEOUT`` is retransmitted up to
    # ``dns_retry_budget`` more times with exponential backoff
    # (``dns_backoff_base * 2**attempt`` plus uniform seeded jitter of up to
    # ``repro.stack.host.DNS_BACKOFF_JITTER``). Clean runs never hit a
    # timeout, so these defaults are wire-invisible without faults; under an
    # outage they produce the paper's query storms.
    dns_retry_budget: int = 2
    dns_backoff_base: float = 2.0

    # Misc
    answer_echo: bool = True            # replies to ICMPv6/ICMPv4 echo
    open_tcp_ports_v4: tuple = ()
    open_tcp_ports_v6: tuple = ()
    open_udp_ports_v4: tuple = ()
    open_udp_ports_v6: tuple = ()


@dataclass
class DnsServers:
    """The resolver addresses a host has learned, per transport family."""

    v4: list = field(default_factory=list)
    v6: list = field(default_factory=list)

    def clear(self) -> None:
        self.v4.clear()
        self.v6.clear()
