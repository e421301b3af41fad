"""Hybrid-fidelity fast path: flow-level simulation where packets don't matter.

In ``flow`` fidelity (see :class:`repro.stack.config.NetworkConfig`), the
steady-state *data plane* — TCP payload exchanges against cloud endpoints,
IPv6 NTP, and periodic local multicast beacons — advances as one scheduled
completion per flow instead of per-segment events, emitting an aggregate
:class:`FlowRecord` with the same byte accounting the per-packet capture
would have produced. Everything load-bearing for the paper's observables
stays packet-level: NDP/SLAAC, DHCPv4/v6, DNS, TCP handshake and teardown,
and ICMPv6 all hit the wire exactly as before, so the capture index, the
firewall conntrack, fault injection, and WAN scanning see identical control
traffic in both modes.

The equivalence argument leans on three substrate invariants:

- **No RNG draws in skipped regions.** Client ISNs, ports, and TLS hello
  randoms are drawn before the handshake; server handlers are pure; NTP and
  beacons use fixed ports. Skipping data segments therefore cannot shift any
  seeded stream.
- **Idle fault schedules are wire-invisible.** Impairments only draw
  randomness while a window is active (``repro.faults.inject``), so frames
  may be elided outside windows; any window overlapping a flow's lifetime
  forces a fall back to packet fidelity for that flow (:meth:`_hazard`).
- **Neighbor state is idempotent.** Every assigned address announces itself
  with an unsolicited NA at assignment time, so caches the skipped frames
  would have refreshed are already populated, and ``ResolutionCache.learn``
  carries no timestamps.

Client-visible TCP state (seq/ack on both connection halves) is advanced by
the skipped byte totals, and the completion time is the clock advanced by
one link latency per skipped transit, so the FIN teardown — which stays
packet-level — is byte- and time-identical to the per-segment exchange.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.ip6 import AddressScope, as_ipv6, classify_address
from repro.net.ntp import MODE_SERVER, NTP

if TYPE_CHECKING:
    from repro.stack.host import HostStack
    from repro.stack.tcpflows import TcpConnection

# NTP messages are a fixed 48-byte wire format in both directions.
NTP_REQUEST_LEN = len(NTP().encode())
NTP_REPLY_LEN = len(NTP(MODE_SERVER, stratum=2).encode())

# Fault kinds that perturb LAN frames (force packet fidelity while active).
_LINK_HAZARDS = ("loss", "latency", "reorder")


@dataclass(frozen=True)
class FlowRecord:
    """One aggregate data exchange, as the capture tap would have summed it.

    ``timestamp`` is the emission time used to merge the record into the
    packet stream (``CaptureIndex`` ingests packets first on ties); byte
    totals use the same payload wire lengths the per-segment path reports.
    ``tls_hello`` carries the first request of a TLS-shaped TCP flow so SNI
    extraction matches the packet-level capture.
    """

    timestamp: float
    src_mac: object
    proto: str              # "tcp" | "udp"
    family: int             # 6 | 4
    src_ip: object
    dst_ip: object
    sport: int
    dport: int
    bytes_out: int
    bytes_in: int
    tls_hello: Optional[bytes] = None


class FlowFastPath:
    """The per-testbed switchboard deciding frame-level vs flow-level.

    One instance is wired into every host stack (``stack.flow_path``) and
    TCP engine (``engine.flow_path``) by the lab assembly; ``enabled`` is
    flipped per experiment from ``NetworkConfig.fidelity``. Every ``try_*``
    entry point returns False when the exchange must stay packet-level —
    callers then fall through to the unchanged frame path.
    """

    def __init__(self, sim, link, router, internet):
        self.sim = sim
        self.link = link
        self.router = router
        self.internet = internet
        self.enabled = False
        self.records: list[FlowRecord] = []

    def attach(self, stack: "HostStack") -> None:
        """Wire this fast path into one host's send paths."""
        stack.flow_path = self
        for engine in (stack.tcp6, stack.tcp4):
            engine.flow_path = self
            engine.flow_mac = stack.mac

    def begin(self) -> list[FlowRecord]:
        """Start a fresh record list for one experiment and return it live."""
        self.records = []
        return self.records

    # ------------------------------------------------------------ fault guard

    def _hazard(self, horizon: float, *, family: int, wan: bool) -> bool:
        """Would any fault window overlap frames sent in the next ``horizon``
        seconds? Impairments draw per-frame randomness only inside windows,
        so eliding frames is stream-invisible exactly when this is False."""
        now = self.sim.now
        impairment = getattr(self.link, "impairment", None)
        if impairment is not None and self._overlaps(impairment.schedule, _LINK_HAZARDS, now, horizon):
            return True
        if wan:
            faults = getattr(self.router, "faults", None)
            if faults is not None:
                kinds = ("uplink-down", "v6-blackhole") if family == 6 else ("uplink-down",)
                if self._overlaps(faults.schedule, kinds, now, horizon):
                    return True
        return False

    @staticmethod
    def _overlaps(schedule, kinds, now: float, horizon: float) -> bool:
        end = now + horizon
        for window in schedule.windows:
            if window.kind in kinds and window.duration > 0 and window.start <= end and now < window.end:
                return True
        return False

    # ------------------------------------------------------------------- TCP

    def try_tcp(self, conn: "TcpConnection") -> bool:
        """Take over an ESTABLISHED client connection's payload exchange.

        Called where the packet path would send its first request. On
        success the full request/response exchange is resolved against the
        cloud endpoint's (pure) service handler, both connection halves'
        counters advance by the skipped byte totals, and the FIN teardown is
        scheduled for exactly when the per-segment exchange would have
        reached it. Returns False — leaving the connection untouched —
        whenever per-frame behaviour could diverge: fault windows, non-cloud
        destinations, missing NAT/server state, or a service response the
        packet path would stall on.
        """
        if not self.enabled or not conn.requests:
            return False
        local_ip, local_port, remote_ip, remote_port = conn.key
        family = 6 if isinstance(remote_ip, ipaddress.IPv6Address) else 4
        latency = self.link.latency
        # Request i is acked 2*latency later; the FIN goes out with the last
        # ack, two link transits per remaining exchange away.
        complete_delay = 2.0 * len(conn.requests) * latency
        if self._hazard(complete_delay + 4.0 * latency, family=family, wan=True):
            return False
        endpoint = self.internet.tcp_endpoint(remote_ip)
        if endpoint is None:
            return False
        handler = endpoint.tcp.listeners.get(remote_port)
        if handler is None:
            return False
        if family == 6:
            server_key = (remote_ip, remote_port, local_ip, local_port)
        else:
            public_port = self.router.nat_public_port(6, local_ip, local_port)
            if public_port is None:
                return False
            server_key = (remote_ip, remote_port, self.router.wan_v4_address, public_port)
        server = endpoint.tcp.server_conn(server_key)
        if server is None:
            return False
        responses = []
        for request in conn.requests:
            response = handler(request)
            if not response:
                # The packet path answers an empty response with an empty
                # PSH|ACK the client ignores — a stall into the client
                # timeout. That wire behaviour needs real segments.
                return False
            responses.append(response)
        # Each skipped transit advances the packet path's clock by one
        # latency: sum them the same way so the FIN lands on the same float.
        complete_at = self.sim.now
        for _ in range(2 * len(conn.requests)):
            complete_at += latency
        self.sim.schedule_at(complete_at, self._complete_tcp, conn, server, responses, family)
        return True

    def _complete_tcp(self, conn: "TcpConnection", server, responses: list[bytes], family: int) -> None:
        from repro.net.tcp import FLAG_ACK, FLAG_FIN

        if conn.state != "ESTABLISHED":
            return
        local_ip, local_port, remote_ip, remote_port = conn.key
        total_out = sum(len(request) for request in conn.requests)
        total_in = sum(len(response) for response in responses)
        hello = conn.requests[0]
        conn.responses.extend(responses)
        conn.requests.clear()
        # Advance both halves past the skipped payload bytes so the FIN
        # exchange carries the exact seq/ack the per-segment path would.
        conn.seq = (conn.seq + total_out) & 0xFFFFFFFF
        conn.ack = (conn.ack + total_in) & 0xFFFFFFFF
        server.seq = (server.seq + total_in) & 0xFFFFFFFF
        server.ack = (server.ack + total_out) & 0xFFFFFFFF
        if family == 6:
            self.router.firewall.note_flow(6, local_ip, local_port, remote_ip, remote_port)
        self.records.append(
            FlowRecord(
                timestamp=self.sim.now,
                src_mac=conn.engine.flow_mac,
                proto="tcp",
                family=family,
                src_ip=local_ip,
                dst_ip=remote_ip,
                sport=local_port,
                dport=remote_port,
                bytes_out=total_out,
                bytes_in=total_in,
                tls_hello=hello if hello[:1] == b"\x16" else None,
            )
        )
        conn._send(FLAG_FIN | FLAG_ACK)
        conn.state = "FIN_WAIT"

    # ------------------------------------------------------------------- NTP

    def try_ntp(self, stack: "HostStack", dst) -> bool:
        """Advance one fixed-format NTP exchange as a flow record.

        Replicates the packet path's routing decisions: source selection
        (marking the source address used), the off-link default route, the
        router's forwarding policy, and the WAN endpoint's reachability. A
        request the router would drop still emits its one-sided record.
        """
        if not self.enabled:
            return False
        if self._hazard(4.0 * self.link.latency, family=6, wan=True):
            return False
        if not stack.config.ipv6_enabled or stack.ipv6_shutdown:
            return True  # the packet path would send nothing
        dst = as_ipv6(dst)
        record = stack.addrs.best_source(dst)
        if record is None:
            return True
        record.used = True
        if stack.default_router_mac is None:
            return True  # off-link with no route: no frame leaves the host
        forwarded = self.router.config.ipv6 and classify_address(dst) == AddressScope.GUA
        if forwarded:
            endpoint = self.internet.tcp_endpoint(dst)
            if endpoint is None or endpoint.udp_handlers.get(123) is None:
                return False  # not the modelled NTP service; keep packets
            self.router.firewall.note_flow(17, record.address, 123, dst, 123)
        self.records.append(
            FlowRecord(
                timestamp=self.sim.now,
                src_mac=stack.mac,
                proto="udp",
                family=6,
                src_ip=record.address,
                dst_ip=dst,
                sport=123,
                dport=123,
                bytes_out=NTP_REQUEST_LEN,
                bytes_in=NTP_REPLY_LEN if forwarded else 0,
            )
        )
        return True

    # -------------------------------------------------------- local multicast

    def try_local_multicast(self, stack: "HostStack", group, port: int, payload_len: int) -> bool:
        """Advance one local multicast beacon (and the fan-out of per-device
        port-unreachable replies it provokes) as a single flow record."""
        if not self.enabled:
            return False
        if self._hazard(4.0 * self.link.latency, family=6, wan=False):
            return False
        if not stack.config.ipv6_enabled or stack.ipv6_shutdown:
            return True
        group = as_ipv6(group)
        record = stack.addrs.best_source(group)
        if record is None:
            return True
        record.used = True
        self.records.append(
            FlowRecord(
                timestamp=self.sim.now,
                src_mac=stack.mac,
                proto="udp",
                family=6,
                src_ip=record.address,
                dst_ip=group,
                sport=port,
                dport=port,
                bytes_out=payload_len,
                bytes_in=0,
            )
        )
        return True
