"""The simulated Internet: routes WAN packets to service endpoints.

The router hands outbound L3 packets here; the Internet locates the endpoint
owning the destination address and synthesizes the server side of the
conversation (DNS answers, TLS-ish responses, NTP replies, generic echo
services). Replies flow back through the router onto the LAN, so the capture
tap sees both directions exactly as the paper's tcpdump did.
"""

from __future__ import annotations

import functools
import ipaddress
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.dns import (
    DNS,
    RCODE_NXDOMAIN,
    ResourceRecord,
    TYPE_A,
    TYPE_AAAA,
    TYPE_HTTPS,
    TYPE_SVCB,
)
from repro.net.ip6 import as_ipv6
from repro.net.ipv4 import IPv4, as_ipv4
from repro.net.ipv6 import IPv6
from repro.net.ntp import MODE_SERVER, NTP
from repro.net.packet import Layer
from repro.net.tcp import TCP
from repro.net.tls import TLSClientHello
from repro.net.udp import UDP
from repro.stack.tcpflows import TcpEngine

if TYPE_CHECKING:
    from repro.cloud.registry import DnsRegistry
    from repro.sim.engine import Simulator
    from repro.stack.router import Router

# A canned TLS "ServerHello + certificate" blob: what the capture sees back
# from an HTTPS endpoint after a ClientHello.
SERVER_HELLO = b"\x16\x03\x03" + (1200).to_bytes(2, "big") + b"\x02" * 1200


@functools.lru_cache(maxsize=256)
def app_data_record(size: int) -> bytes:
    """A TLS application-data record with a ``size``-byte all-zero body.

    One shared object per size: a device's request and the service's echo
    of it are the same object, so a capture holds one body per record
    length instead of one per record. Bytes are immutable and a frame never
    changes after ``Nic.send``, so no one can observe the sharing.
    """
    return b"\x17\x03\x03" + size.to_bytes(2, "big") + bytes(size)


def default_tcp_service(payload: bytes) -> bytes:
    """The generic cloud service: TLS-ish handshake, then echo-sized data."""
    try:
        TLSClientHello.decode(payload)
    except Exception:
        return app_data_record(max(0, len(payload) - 5))
    return SERVER_HELLO


class Endpoint:
    """A server at one IP address, with per-port TCP/UDP services."""

    def __init__(self, internet: "Internet", address):
        self.internet = internet
        self.address = address
        self.reachable = True
        self.udp_handlers: dict[int, Callable[[object, Layer], Optional[Layer]]] = {}
        self.tcp = TcpEngine(self._tcp_send, internet.sim.schedule, internet.rng)
        self.tcp.listen(443, default_tcp_service)
        self.tcp.listen(8883, default_tcp_service)  # MQTT-over-TLS, common for IoT

    def _tcp_send(self, local_ip, remote_ip, segment: TCP) -> None:
        self.internet.send_to_lan(local_ip, remote_ip, 6, segment)

    def handle(self, packet) -> None:
        payload = packet.payload
        if isinstance(payload, TCP):
            self.tcp.on_segment(packet.dst, packet.src, payload)
        elif isinstance(payload, UDP):
            response = self.answer_udp(packet.src, payload.dport, payload.payload)
            if response is not None:
                reply = UDP(payload.dport, payload.sport, response)
                self.internet.send_to_lan(packet.dst, packet.src, 17, reply)

    def answer_udp(self, src, port: int, message: Layer) -> Optional[Layer]:
        """The service on UDP ``port``'s answer to ``message`` from ``src``
        (None: no service, or no answer)."""
        handler = self.udp_handlers.get(port)
        return None if handler is None else handler(src, message)


class Internet:
    """Owns the DNS registry and every cloud endpoint."""

    def __init__(
        self,
        sim: "Simulator",
        registry: "DnsRegistry",
        *,
        dns_v4: str = "8.8.8.8",
        dns_v6: str = "2001:4860:4860::8888",
        ntp_v6: str = "2620:2d:4000:1::3f",
    ):
        self.sim = sim
        self.registry = registry
        self.rng = sim.rng_for("internet")
        self.router: Optional["Router"] = None
        self._endpoints: dict[object, Endpoint] = {}
        self.dns_v4 = as_ipv4(dns_v4)
        self.dns_v6 = as_ipv6(dns_v6)
        self.ntp_v6 = as_ipv6(ntp_v6)
        self.dropped: int = 0  # packets to unreachable/unknown destinations
        # Response templates per question: the registry is immutable once
        # materialized, so the resolver builds each answer (and its encoded
        # tail) once and stamps per-query transaction IDs onto copies.
        self._dns_responses: dict[tuple[str, int, int], DNS] = {}

        for addr in (self.dns_v4, self.dns_v6):
            endpoint = self.endpoint(addr)
            endpoint.udp_handlers[53] = self._dns_service
        ntp_endpoint = self.endpoint(self.ntp_v6)
        ntp_endpoint.udp_handlers[123] = self._ntp_service

    def attach_router(self, router: "Router") -> None:
        self.router = router

    def close(self) -> None:
        """Drop every endpoint and the router, which refer back to this
        Internet; it routes nothing afterwards."""
        for endpoint in self._endpoints.values():
            if isinstance(endpoint, Endpoint):
                endpoint.tcp = None  # its ``send`` is the endpoint's bound ``_tcp_send``
        self._endpoints = {}
        self.router = None

    # ---------------------------------------------------------------- endpoints

    def endpoint(self, address) -> Endpoint:
        endpoint = self._endpoints.get(address)
        if endpoint is None:
            endpoint = Endpoint(self, address)
            ntp = self._ntp_service
            endpoint.udp_handlers.setdefault(123, ntp)
            self._endpoints[address] = endpoint
        return endpoint

    def tcp_endpoint(self, address) -> Optional[Endpoint]:
        """The live cloud endpoint at ``address``, for flow-level shortcuts.

        Returns None for unknown or unreachable destinations and for
        caller-attached vantage objects (scanner endpoints) that are not
        full :class:`Endpoint`\\ s — those must keep exchanging packets.
        """
        endpoint = self._endpoints.get(address)
        if isinstance(endpoint, Endpoint) and endpoint.reachable:
            return endpoint
        return None

    def attach_endpoint(self, address, endpoint) -> None:
        """Install a caller-provided endpoint object at ``address``.

        The object only needs ``reachable`` and ``handle(packet)`` — this is
        how the WAN-side exposure scanner receives replies routed back out of
        the home (:mod:`repro.exposure.wanscan`).
        """
        if isinstance(address, str):
            address = ipaddress.ip_address(address)
        self._endpoints[address] = endpoint

    def materialize_registry(self) -> None:
        """Create an endpoint for every address in the DNS registry."""
        for record in self.registry.domains():
            for addr in record.a_records:
                self.endpoint(addr)
            for addr in record.aaaa_records:
                endpoint = self.endpoint(addr)
                endpoint.reachable = record.v6_reachable

    # ---------------------------------------------------------------- delivery

    def deliver_v4(self, packet: IPv4) -> None:
        endpoint = self._endpoints.get(packet.dst)
        if endpoint is None or not endpoint.reachable:
            self.dropped += 1
            return
        endpoint.handle(packet)

    def deliver_v6(self, packet: IPv6) -> None:
        endpoint = self._endpoints.get(packet.dst)
        if endpoint is None or not endpoint.reachable:
            self.dropped += 1
            return
        endpoint.handle(packet)

    def send_to_lan(self, src, dst, proto: int, transport: Layer) -> None:
        """Build a reply packet and route it back through the home router."""
        if self.router is None:
            return
        if isinstance(src, ipaddress.IPv6Address):
            self.router.from_wan_v6(IPv6(src, dst, proto, transport, hop_limit=58))
        else:
            self.router.from_wan_v4(IPv4(src, dst, proto, transport, ttl=58))

    # ---------------------------------------------------------------- services

    def _ntp_service(self, src, query: Layer) -> Optional[Layer]:
        if isinstance(query, NTP):
            return NTP(MODE_SERVER, stratum=2, transmit_timestamp=int(self.sim.now * 2**32) & (2**64 - 1))
        return None

    def _dns_service(self, src, query: Layer) -> Optional[Layer]:
        if not isinstance(query, DNS) or query.is_response or query.question is None:
            return None
        question = query.question
        key = (question.name, question.qtype, question.qclass)
        template = self._dns_responses.get(key)
        if template is None:
            template = self._build_dns_response(query)
            self._dns_responses[key] = template
        return template.with_txid(query.txid)

    def _build_dns_response(self, query: DNS) -> DNS:
        question = query.question
        record = self.registry.lookup(question.name)
        if record is None:
            soa = ResourceRecord.soa(_zone_of(question.name), "ns1.gtld.example", "hostmaster.gtld.example")
            return query.response(rcode=RCODE_NXDOMAIN, authorities=(soa,))
        if question.qtype == TYPE_A and record.has_a:
            return query.response(ResourceRecord.a(question.name, a) for a in record.a_records)
        if question.qtype == TYPE_AAAA and record.has_aaaa:
            return query.response(ResourceRecord.aaaa(question.name, a) for a in record.aaaa_records)
        if question.qtype in (TYPE_HTTPS, TYPE_SVCB):
            # No SVCB data: NOERROR/NODATA with an SOA, the common case.
            soa = ResourceRecord.soa(_zone_of(question.name), "ns1.gtld.example", "hostmaster.gtld.example")
            return query.response(authorities=(soa,))
        # NOERROR, no data: the paper's "SOA record" negative responses.
        soa = ResourceRecord.soa(_zone_of(question.name), "ns1.gtld.example", "hostmaster.gtld.example")
        return query.response(authorities=(soa,))


@functools.lru_cache(maxsize=1 << 12)
def _zone_of(name: str) -> str:
    parts = name.rstrip(".").split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else name
