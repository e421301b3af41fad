"""Hybrid-fidelity fast path: flow-level simulation where packets don't matter.

In ``flow`` fidelity (see :class:`repro.stack.config.NetworkConfig`), the
exchanges that carry most of a home's traffic run without frames when all
of the exchange runs clean:

- a first-attempt DNS lookup;
- a whole TCP connection to a cloud endpoint: handshake, every
  request/response round and the FIN teardown;
- an IPv6 NTP round trip;
- a local multicast beacon.

Each leaves a record (:class:`FlowRecord`, :class:`DnsRecord`) that
:class:`~repro.core.capture.CaptureIndex` credits through the helpers its
frame path uses, to the same DNS events, flows and address observations
the frames would have produced. NDP/SLAAC, DAD, DHCPv4/v6, ARP, ICMP, DNS
retransmissions, the active experiments and every exchange that is not
clean stay packet-level, so the capture index, the firewall, fault
injection and WAN scanning see the same control traffic in both modes.

The equivalence argument:

- **Same instants.** Each elided packet's effects happen in an event at the
  float time the packet path reaches by adding ``link.latency`` (L) once per
  transit. The router and Internet leg of an exchange started at t0 runs at
  t0 + L, when its first packet would reach the router; a lookup answers at
  t0 + 2L; a connection with n requests completes at t0 + (2n + 4)L and its
  final ACK reaches the router at t0 + (2n + 5)L.
- **Same draws and state changes.** Those events call the methods the frame
  path runs: neighbour learning, the NAT44 mapping, the firewall's stamps
  and verdicts, and the server's ISN draw from the shared Internet stream.
  Client ISNs, ports, txids and TLS hello randoms are drawn before the fast
  path is asked. Service and resolver handlers are pure, so asking them when
  the exchange starts changes nothing.
- **Idle fault schedules are wire-invisible.** Impairments draw per-frame
  randomness only inside windows, so frames may be elided outside them. The
  fault hooks (:mod:`repro.faults.inject`) say which windows can touch which
  traffic, and any window that could touch an exchange keeps it on the wire.
- **Decided once, at the start.** An exchange is taken only when every hop
  of it would go straight through: the host routes it to the router at once
  and takes the answer in, the router forwards it and routes the answer
  back without resolving anything, and the endpoint answers. Otherwise
  ``try_*`` returns False and the unchanged frame path runs. The state
  these checks read only changes when an experiment reconfigures the home,
  never within an exchange's few milliseconds.
"""

from __future__ import annotations

import ipaddress
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.net.dns import DNS
from repro.net.ip6 import as_ipv6
from repro.net.ipv4 import as_ipv4
from repro.net.ntp import MODE_SERVER, NTP
from repro.net.packet import Raw

if TYPE_CHECKING:
    from repro.stack.host import HostStack
    from repro.stack.tcpflows import TcpConnection

# NTP messages are a fixed 48-byte wire format in both directions.
NTP_REQUEST = NTP()
NTP_REQUEST_LEN = len(NTP_REQUEST.encode())
NTP_REPLY_LEN = len(NTP(MODE_SERVER, stratum=2).encode())


class FlowRecord(NamedTuple):
    """One TCP or UDP exchange, as the capture tap would have summed it.

    ``timestamp`` is when the exchange's first frame would have been
    captured; ``CaptureIndex`` merges records into the frame stream by it,
    frames first on ties. Byte totals use the payload wire lengths the
    per-segment path reports. ``first_request`` is a TCP flow's first
    request, where the capture index reads the SNI as from its segment.
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
    first_request: Optional[bytes] = None

    @property
    def payload(self) -> Optional[Raw]:
        """The first request as its segment carries it: opaque bytes."""
        return None if self.first_request is None else Raw(self.first_request)


class DnsRecord(NamedTuple):
    """One half of an elided DNS lookup: the query at the instant the host
    sends it, or the answer at the instant the router sends it on.

    ``src_mac`` and ``src_ip`` are the querying host's; ``message`` is the
    query or the resolver's response.
    """

    timestamp: float
    src_mac: object
    family: int
    src_ip: object
    message: DNS


class FlowFastPath:
    """The per-testbed switchboard deciding frame-level vs flow-level.

    One instance is wired into every host stack (``stack.flow_path``) and
    TCP engine (``engine.flow_path``) by the lab assembly;
    ``Testbed.configure`` sets ``enabled`` from ``NetworkConfig.fidelity``.
    Every ``try_*`` entry point takes an exchange, appending its record,
    only when all of it runs clean, and otherwise returns False without
    changing any state: callers then fall through to the unchanged frame
    path.
    """

    def __init__(self, sim, link, router, internet):
        self.sim = sim
        self.link = link
        self.router = router
        self.internet = internet
        self.enabled = False
        self.records: list = []

    def attach(self, stack: "HostStack") -> None:
        """Wire this fast path into one host's send paths."""
        stack.flow_path = self
        for engine in (stack.tcp6, stack.tcp4):
            engine.flow_path = self
            engine.flow_host = stack

    # ------------------------------------------------------------ path guards

    def _hazard(self, horizon: float, family: Optional[int] = None, *, dns: bool = False) -> bool:
        """Could a fault window touch frames sent in the next ``horizon``
        seconds: a LAN window, or, given a ``family``, a router window that
        drops that family's WAN traffic (lookups too when ``dns``)? The
        fault hooks say which kinds touch which traffic."""
        now = self.sim.now
        impairment = self.link.impairment
        if impairment is not None and not impairment.quiet(now, horizon):
            return True
        faults = self.router.faults
        if family is None or faults is None:
            return False
        return not faults.wan_quiet(now, horizon, family=family, dns=dns)

    def _routes(self, stack: "HostStack", family: int, lan_ip, remote_ip) -> bool:
        """Would a packet from ``stack`` at ``lan_ip`` go straight through the
        router to ``remote_ip`` on the WAN, and the answer straight back?

        The v6 answer finds the host through the neighbour entry the request
        itself teaches the router, so it never waits on a solicitation; a
        source outside the LAN /64 gets no answer at all.
        """
        router = self.router
        config = router.config
        if config is None or stack.wan_gateway(family, remote_ip) != router.mac:
            return False
        if family == 6:
            return config.ipv6 and router.wan_bound_v6(remote_ip) and router.lan_bound_v6(lan_ip)
        return config.ipv4 and router.nats_v4(lan_ip, remote_ip) and router.lan_mac_v4(lan_ip) == stack.mac

    def _udp_answer(self, stack: "HostStack", family: int, dst, port: int, message) -> Optional[tuple]:
        """``(source, answer)`` for a datagram from ``stack`` to the WAN
        service at ``dst``:``port`` whose path runs clean both ways, or None.

        The source is the one the send path picks, and it is marked used
        the way the send path marks it.
        """
        if family == 6:
            record = stack.addrs.best_source(dst)
            src = record.address if record is not None else None
        else:
            record, src = None, stack.ipv4_address
        if src is None or not self._routes(stack, family, src, dst):
            return None
        endpoint = self.internet.tcp_endpoint(dst)
        if endpoint is None:
            return None
        answer = endpoint.answer_udp(src if family == 6 else self.router.wan_v4_address, port, message)
        if answer is None:
            return None
        if record is not None:
            record.used = True
        return src, answer

    def _router_leg(
        self, family: int, mac, proto: int, src, sport: int, dst, dport: int, answered: bool = True
    ) -> None:
        """What one elided request does at the router as it arrives, with the
        WAN answer that comes back at the same instant: v6 learns the source
        neighbour and stamps the firewall, v4 maps the flow through NAT44."""
        router = self.router
        if family == 4:
            router.nat_map(proto, src, sport)
            return
        router.hear_v6(src, mac)
        router.firewall.note_flow(proto, src, sport, dst, dport)
        if answered:
            router.firewall.permits_flow(proto, src, sport, dst, dport)

    # ------------------------------------------------------------------- DNS

    def try_dns(self, stack: "HostStack", family: int, server, query: DNS, sport: int) -> bool:
        """Run a first-attempt lookup without frames.

        Called by ``HostStack._dns_attempt`` after its txid and port draws.
        On success the router leg runs at t0 + L and the resolver's answer
        reaches ``HostStack._handle_dns_response`` at t0 + 2L, so the lookup
        needs no timeout. Returns False when a fault window (``dns-outage``
        included) could touch the lookup, when the path is not clean (no
        default router, no ARP entry for the v4 gateway, a source outside the
        LAN /64), or when the resolver would not answer.
        """
        if not self.enabled or self._hazard(2.0 * self.link.latency, family, dns=True):
            return False
        server = as_ipv6(server) if family == 6 else as_ipv4(server)
        exchange = self._udp_answer(stack, family, server, 53, query)
        if exchange is None:
            return False
        src, answer = exchange
        self.records.append(DnsRecord(self.sim.now, stack.mac, family, src, query))
        self.sim.schedule(self.link.latency, self._dns_at_router, stack, family, src, sport, server, answer)
        return True

    def _dns_at_router(self, stack: "HostStack", family: int, src, sport: int, server, answer: DNS) -> None:
        self._router_leg(family, stack.mac, 17, src, sport, server, 53)
        self.records.append(DnsRecord(self.sim.now, stack.mac, family, src, answer))
        self.sim.schedule(self.link.latency, stack._handle_dns_response, answer)

    # ------------------------------------------------------------------- TCP

    def try_tcp(self, conn: "TcpConnection") -> bool:
        """Run a whole client connection without frames.

        Called by ``TcpConnection.start`` after the port and ISN draws. On
        success the connection's request/response rounds are resolved
        against the endpoint's (pure) service handler, one record carries
        the byte totals, the router and Internet leg of the SYN (and the
        server's ISN draw) runs at t0 + L, and ``on_complete`` runs at
        t0 + (2n + 4)L; no SYN is sent and no timeout is armed. Returns
        False — leaving the connection untouched — when a fault window could
        touch the connection, when the path is not clean, when the host
        monitors raw segments or its source address is tentative, when no
        reachable endpoint listens on the port, or when the service would
        answer a request with nothing (the packet path stalls into the
        client timeout).
        """
        if not self.enabled or not conn.requests:
            return False
        stack = conn.engine.flow_host
        local_ip, local_port, remote_ip, remote_port = conn.key
        family = 6 if isinstance(remote_ip, ipaddress.IPv6Address) else 4
        latency = self.link.latency
        # SYN, SYN-ACK, each request and its answer, FIN and FIN-ACK; the
        # final ACK is one transit more.
        transits = 2 * len(conn.requests) + 4
        if self._hazard((transits + 1) * latency, family):
            return False
        if stack.tcp_monitor is not None or not self._routes(stack, family, local_ip, remote_ip):
            return False
        if family == 6:
            source = stack.addrs.get(local_ip)
            if source is None or source.tentative:
                return False
        endpoint = self.internet.tcp_endpoint(remote_ip)
        handler = endpoint.tcp.listeners.get(remote_port) if endpoint is not None else None
        if handler is None:
            return False
        responses = []
        for request in conn.requests:
            response = handler(request)
            if not response:
                return False
            responses.append(response)
        self.records.append(
            FlowRecord(
                timestamp=self.sim.now,
                src_mac=stack.mac,
                proto="tcp",
                family=family,
                src_ip=local_ip,
                dst_ip=remote_ip,
                sport=local_port,
                dport=remote_port,
                bytes_out=sum(len(request) for request in conn.requests),
                bytes_in=sum(len(response) for response in responses),
                first_request=conn.requests[0],
            )
        )
        self.sim.schedule(latency, self._tcp_at_router, conn, endpoint, responses, transits)
        return True

    def _tcp_at_router(self, conn: "TcpConnection", endpoint, responses: list[bytes], transits: int) -> None:
        local_ip, local_port, remote_ip, remote_port = conn.key
        family = 6 if isinstance(remote_ip, ipaddress.IPv6Address) else 4
        self._router_leg(family, conn.engine.flow_host.mac, 6, local_ip, local_port, remote_ip, remote_port)
        endpoint.tcp.draw_isn()  # the SYN-ACK's sequence number
        # The rest of the connection, summed one transit at a time the way
        # the packet path's deliveries sum it, so completion lands on the
        # same float.
        done_at = self.sim.now
        for _ in range(transits - 1):
            done_at += self.link.latency
        self.sim.schedule_at(done_at, self._tcp_done, conn, responses)

    def _tcp_done(self, conn: "TcpConnection", responses: list[bytes]) -> None:
        local_ip, local_port, remote_ip, remote_port = conn.key
        if isinstance(remote_ip, ipaddress.IPv6Address):
            firewall = self.router.firewall
            for _ in range(len(responses) + 1):  # the answers and the FIN-ACK
                firewall.permits_flow(6, local_ip, local_port, remote_ip, remote_port)
            mac = conn.engine.flow_host.mac
            self.sim.schedule(
                self.link.latency, self._router_leg, 6, mac, 6, local_ip, local_port, remote_ip, remote_port, False
            )
        conn.requests.clear()
        conn.responses.extend(responses)
        conn._finish(None)

    # ------------------------------------------------------------------- NTP

    def try_ntp(self, stack: "HostStack", dst) -> bool:
        """Run one IPv6 NTP round trip without frames.

        Called by the device's NTP timer before its frame send. The source,
        the path and the server's answer are decided as for a lookup
        (``try_dns``), and the router leg runs at t0 + L. Returns False
        when a fault window could touch the exchange, when the path is not
        clean, or when no NTP service would answer.
        """
        if not self.enabled or self._hazard(4.0 * self.link.latency, 6):
            return False
        dst = as_ipv6(dst)
        exchange = self._udp_answer(stack, 6, dst, 123, NTP_REQUEST)
        if exchange is None:
            return False
        src = exchange[0]
        self.records.append(
            FlowRecord(
                timestamp=self.sim.now,
                src_mac=stack.mac,
                proto="udp",
                family=6,
                src_ip=src,
                dst_ip=dst,
                sport=123,
                dport=123,
                bytes_out=NTP_REQUEST_LEN,
                bytes_in=NTP_REPLY_LEN,
            )
        )
        self.sim.schedule(self.link.latency, self._router_leg, 6, stack.mac, 17, src, 123, dst, 123)
        return True

    # -------------------------------------------------------- local multicast

    def try_local_multicast(self, stack: "HostStack", group, port: int, payload_len: int) -> bool:
        """Send one local multicast beacon as a single flow record.

        The router learns the sender's neighbour entry when the beacon would
        have reached it. Hosts ignore it, and none answers a multicast
        datagram with an ICMP error (RFC 1122 §3.2.2, RFC 4443 §2.4).
        Returns False when a LAN fault window could touch the beacon or the
        host has no IPv6 source to send it from."""
        if not self.enabled or self._hazard(4.0 * self.link.latency):
            return False
        group = as_ipv6(group)
        source = stack.addrs.best_source(group) if stack.config.ipv6_enabled else None
        if source is None:
            return False
        source.used = True
        # Every NIC takes all-nodes traffic, the router's too.
        self.sim.schedule(self.link.latency, self.router.hear_v6, source.address, stack.mac)
        self.records.append(
            FlowRecord(
                timestamp=self.sim.now,
                src_mac=stack.mac,
                proto="udp",
                family=6,
                src_ip=source.address,
                dst_ip=group,
                sport=port,
                dport=port,
                bytes_out=payload_len,
                bytes_in=0,
            )
        )
        return True
