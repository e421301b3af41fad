"""The IoT device behaviour engine.

An :class:`IoTDevice` owns a real :class:`~repro.stack.host.HostStack` and
drives it according to its profile: boot-time auto-configuration, periodic
cloud check-ins over the IP versions its profile dictates, local
Matter/HomeKit-style traffic, hardcoded-literal IPv6 NTP, and the primary
function exercised by the functionality tester.

Everything the device does lands on the simulated LAN as real frames; the
analysis pipeline reconstructs the paper's findings from those captures
alone.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cloud.internet import app_data_record
from repro.devices.portfolio import build_portfolio
from repro.devices.profile import DeviceProfile, DomainPlan, Phase
from repro.net.dns import TYPE_A, TYPE_AAAA
from repro.net.ip6 import AddressScope
from repro.net.ntp import NTP
from repro.net.packet import Raw
from repro.net.tls import TLSClientHello
from repro.stack.config import NetworkConfig, StackConfig
from repro.stack.host import HostStack

MATTER_PORT = 5540
APP_PORT = 443
V6_FALLBACK_DELAY = 0.3   # seconds from a failed IPv6 flow to its IPv4 retry

_SCOPE_BY_NAME = {scope.name: scope for scope in AddressScope}


class IoTDevice:
    """One testbed device: a profile-driven stack plus behaviour timers."""

    def __init__(self, sim, link, profile: DeviceProfile, internet):
        self.sim = sim
        self.profile = profile
        self.internet = internet
        self.plans: list[DomainPlan] = build_portfolio(profile)
        self.stack = HostStack(sim, profile.slug, profile.mac, link, config=StackConfig(ipv6_enabled=False))
        self.rng = sim.rng_for(f"device/{profile.slug}")
        self.phase: Phase = profile.v6only
        self.network: Optional[NetworkConfig] = None
        self._matter_payload: Optional[Raw] = None
        self._register_domains()

    # ------------------------------------------------------------------ setup

    def _register_domains(self) -> None:
        registry = self.internet.registry
        for plan in self.plans:
            registry.register(plan.name, v4=plan.has_a, v6=plan.has_aaaa)

    def _rotation_plan(self, network: NetworkConfig, phase: Phase) -> tuple[int, int, int]:
        """How many GUAs/ULAs/LLA-rotations to produce in this experiment.

        The paper observes that heavy address generation/rotation happens
        "in response to network issues within an IPv6-only setting" (§5.2.1),
        so rotation is concentrated in the IPv6-only experiments; dual-stack
        runs keep a single (first) address. First addresses formed with
        temporary IIDs differ across runs, so the per-run counts are chosen
        to make the *distinct union* across one IPv6-only plus one dual-stack
        run equal the profile's targets.
        """
        p = self.profile
        is_v6only = network.name.startswith("ipv6-only")
        gua_mode = p.gua_iid_mode or p.iid_mode
        shared_first = gua_mode != "temporary"  # EUI-64/stable firsts dedup across runs
        if is_v6only:
            if p.v6only.gua:
                if p.dual.gua and p.gua_addr_count > 1:
                    # one extra temporary appears in the dual-stack run
                    gua = max(1, p.gua_addr_count - (1 if shared_first else 2))
                else:
                    gua = p.gua_addr_count
            else:
                gua = 1
            if p.v6only.ula:
                overlap = 1 if (p.iid_mode == "temporary" and p.dual.ula) else 0
                ula = max(1, p.ula_addr_count - overlap)
            else:
                ula = 1
            lla_rot = max(0, p.lla_count - 1)
        else:
            if phase.gua and not p.v6only.gua:
                gua = p.gua_addr_count
            elif phase.gua and p.gua_addr_count > 1:
                # Dual-stack: rotate once, *before* the first check-in, so
                # the first (EUI-64/stable) address never sources dual-stack
                # traffic — rotation pressure lives in IPv6-only runs (§5.2.1).
                gua = 2
            else:
                gua = 1
            ula = p.ula_addr_count if (phase.ula and not p.v6only.ula) else 1
            lla_rot = 0
        return gua, ula, lla_rot

    def _stack_config(self, network: NetworkConfig, phase: Phase) -> StackConfig:
        p = self.profile
        gua_count, ula_count, lla_rotations = self._rotation_plan(network, phase)
        return StackConfig(
            ipv6_enabled=phase.ndp,
            forms_addresses=phase.addr,
            form_lla=phase.addr and p.form_lla,
            accept_gua_prefix=phase.gua,
            iid_mode=p.iid_mode,
            gua_iid_mode=p.gua_iid_mode,
            temporary_addr_count=gua_count,
            temporary_spread=60.0 if (p.gua_rotation_fast or not network.ipv6 or network.ipv4) else 800.0,
            temporary_start=5.0 if p.gua_rotation_fast else (30.0 if network.ipv4 else 250.0),
            temporary_rotate_out=p.gua_rotate_out,
            lla_rotations=lla_rotations,
            form_ula=phase.ula,
            ula_prefix_seed=p.slug,
            ula_addr_count=ula_count,
            dad_enabled=p.dad_enabled,
            dad_skip_scopes=frozenset(_SCOPE_BY_NAME[s] for s in p.dad_skip_scopes),
            dhcpv6_stateless=p.dhcpv6_stateless,
            dhcpv6_stateful=p.dhcpv6_stateful,
            use_dhcpv6_address=p.use_dhcpv6_address,
            accept_rdnss=p.accept_rdnss,
            dns_retry_budget=p.dns_retry_budget,
            dns_backoff_base=p.dns_backoff_base,
            open_tcp_ports_v4=p.open_tcp_v4,
            open_tcp_ports_v6=p.open_tcp_v6,
            open_udp_ports_v4=p.open_udp_v4,
            open_udp_ports_v6=p.open_udp_v6,
        )

    def prepare(self, network: NetworkConfig) -> None:
        """Configure the stack for one connectivity experiment and reboot."""
        self.network = network
        self.phase = self.profile.phase_for(network)
        self.stack.config = self._stack_config(network, self.phase)
        self.stack.boot()
        if self.phase.local_v6:
            self.sim.schedule(90.0 + self.rng.uniform(0, 30), self._local_traffic)

    # ------------------------------------------------------------- check-ins

    def checkin(self) -> None:
        """One cloud check-in cycle: contact the portfolio per the profile."""
        if self.network is None:
            return
        delay = 0.0
        for plan in self.plans:
            delay += self.rng.uniform(0.05, 0.4)
            self.sim.schedule(delay, self._contact, plan)
        if self.phase.ntp_v6:
            self.sim.schedule(delay + 1.0, self._ntp_v6)
        if self.profile.use_dhcpv6_address:
            self.sim.schedule(delay + 2.0, self._lease_probe)

    def _contact(self, plan: DomainPlan) -> None:
        network = self.network
        if network is None:
            return
        if network.name == "ipv4-only":
            if plan.in_v4only:
                self._flow_v4(plan)
            return
        if not network.ipv4:  # the three IPv6-only configurations
            self._contact_v6only(plan)
            return
        self._contact_dual(plan)

    # -- IPv6-only ------------------------------------------------------------

    def _contact_v6only(self, plan: DomainPlan) -> None:
        if plan.v6_literal and plan.data_v6_in_v6only:
            self._flow_v6_literal(plan)
            return
        if not plan.in_v6only or not self.phase.dns_v6:
            return
        if not self._has_global_v6():
            return
        if plan.a_only_in_v6:
            self.stack.resolve(plan.name, TYPE_A, 6, lambda msg: None)
            return
        if not (plan.queries_aaaa or plan.essential):
            return
        self.stack.resolve(plan.name, TYPE_A, 6, lambda msg: None)
        self.stack.resolve(
            plan.name,
            TYPE_AAAA,
            6,
            lambda msg, p=plan: self._maybe_flow_v6(p, msg, p.data_v6_in_v6only, p.bytes_v6 or 800),
        )

    # -- dual-stack -------------------------------------------------------------

    def _contact_dual(self, plan: DomainPlan) -> None:
        if plan.data_v4_in_dual and plan.has_a:
            self._flow_v4(plan)
        if plan.v6_literal and plan.data_v6_in_dual and self.phase.data_v6 and self._has_global_v6():
            self._flow_v6_literal(plan)
            return
        if plan.queries_aaaa:
            transport = plan.aaaa_transport_dual
            if transport == "v6" and self.phase.dns_v6 and self._has_global_v6():
                family = 6
            elif self.phase.aaaa_v4:
                family = 4
            elif transport == "v6" and self.phase.dns_v6:
                family = 6
            else:
                return
            self.stack.resolve(
                plan.name,
                TYPE_AAAA,
                family,
                lambda msg, p=plan: self._maybe_flow_v6(
                    p, msg, p.data_v6_in_dual and self.phase.data_v6 and self._has_global_v6(), p.bytes_v6
                ),
            )
        elif plan.a_only_in_v6 and self.phase.dns_v6 and self._has_global_v6():
            self.stack.resolve(plan.name, TYPE_A, 6, lambda msg: None)

    # -- flows ------------------------------------------------------------------

    def _has_global_v6(self) -> bool:
        return bool(self.stack.addrs.assigned(AddressScope.GUA))

    def _flow_v4(self, plan: DomainPlan, on_done: Optional[Callable[[bool], None]] = None) -> None:
        done = on_done or (lambda ok: None)

        def with_answer(msg):
            answers = msg.answers_of_type(TYPE_A) if msg is not None else []
            if not answers:
                done(False)
                return
            self._tcp_flow(answers[0].rdata, plan, plan.bytes_v4 or 800, done)

        if not self.stack.resolve(plan.name, TYPE_A, 4, with_answer):
            done(False)

    def _maybe_flow_v6(self, plan: DomainPlan, msg, want_data: bool, volume: int) -> None:
        answers = msg.answers_of_type(TYPE_AAAA) if msg is not None else []
        if not answers or not want_data:
            return
        self._tcp_flow(
            answers[0].rdata, plan, volume or 800, lambda ok, p=plan: None if ok else self._fallback_v4(p)
        )

    def _flow_v6_literal(self, plan: DomainPlan) -> None:
        record = self.internet.registry.lookup(plan.name)
        if record is None or not record.aaaa_records:
            return
        self._tcp_flow(
            record.aaaa_records[0], plan, plan.bytes_v6 or 800, lambda ok, p=plan: None if ok else self._fallback_v4(p)
        )

    def _fallback_v4(self, plan: DomainPlan) -> None:
        """Happy-eyeballs-style rescue: a failed IPv6 flow retries over IPv4.

        Only dual-stack devices with a live IPv4 lease and an A record for
        the destination fall back; IPv6-only homes have nowhere to go — the
        functionality loss the paper observed under broken v6.
        """
        network = self.network
        if network is None or not network.ipv4:
            return
        if self.stack.ipv4_address is None or not plan.has_a:
            return
        self.stack.metrics.fallbacks += 1
        self.sim.schedule(V6_FALLBACK_DELAY, self._flow_v4, plan)

    def _tcp_flow(self, address, plan: DomainPlan, volume: int, done: Callable[[bool], None]) -> None:
        hello = TLSClientHello(plan.name, random=self.rng.getrandbits(256).to_bytes(32, "big")).encode()
        volume = max(1, volume)
        # Application data is sent as <=30 kB records so every segment fits
        # the 16-bit IP length fields.
        requests = [hello]
        remaining = volume
        while remaining > 0:
            chunk = min(remaining, 30_000)
            requests.append(app_data_record(chunk))
            remaining -= chunk
        metrics = self.stack.metrics
        metrics.flow_attempts += 1

        def on_complete(responses):
            metrics.flow_successes += 1
            metrics.flow_success_times.append(self.sim.now)
            done(True)

        def on_fail(reason):
            metrics.flow_failures += 1
            metrics.flow_failure_times.append(self.sim.now)
            done(False)

        self.stack.tcp_request(address, APP_PORT, requests, on_complete=on_complete, on_fail=on_fail)

    def _ntp_v6(self) -> None:
        if not self._has_any_v6():
            return
        flow_path = self.stack.flow_path
        if flow_path is not None and flow_path.try_ntp(self.stack, self.internet.ntp_v6):
            return
        self.stack.udp_send(self.internet.ntp_v6, 123, NTP(), sport=123)

    def _lease_probe(self) -> None:
        """The four devices that *use* their stateful DHCPv6 lease do so as a
        secondary address (§5.2.1): one DNS lookup sourced from it."""
        lease = self.stack.dhcpv6_lease
        if lease is None or not self.stack.addrs.owns(lease) or not self.stack.dns_servers.v6:
            return
        from repro.net.dns import DNS, TYPE_A

        query = DNS.query(self.rng.getrandbits(16), self.plans[0].name, TYPE_A)
        self.stack.udp_send(self.stack.dns_servers.v6[0], 53, query, src=lease)

    def _has_any_v6(self) -> bool:
        return bool(self.stack.addrs.assigned())

    def _local_traffic(self) -> None:
        if self.network is None or not self.phase.local_v6:
            return
        # The Matter beacon payload never varies per device, so build it once
        # and send the same object every period.
        payload = self._matter_payload
        if payload is None:
            payload = Raw(b"\x05\x40" + self.profile.slug.encode()[:24].ljust(24, b"\x00"))
            self._matter_payload = payload
        flow_path = self.stack.flow_path
        if flow_path is None or not flow_path.try_local_multicast(
            self.stack, "ff02::1", MATTER_PORT, len(payload.data)
        ):
            self.stack.udp_send("ff02::1", MATTER_PORT, payload, sport=MATTER_PORT)
        self.sim.schedule(300.0 + self.rng.uniform(0, 60), self._local_traffic)

    # ------------------------------------------------------- functionality test

    def run_functionality(self, callback: Callable[[bool], None]) -> None:
        """Exercise the primary function: every essential destination must be
        resolvable and reachable over an available IP version."""
        essentials = [p for p in self.plans if p.essential]
        if not essentials:
            callback(True)
            return
        state = {"pending": len(essentials), "ok": True, "fired": False}

        def settle(success: bool) -> None:
            state["pending"] -= 1
            state["ok"] = state["ok"] and success
            if state["pending"] == 0 and not state["fired"]:
                state["fired"] = True
                callback(state["ok"])

        for plan in essentials:
            self._function_flow(plan, settle)

    def _function_flow(self, plan: DomainPlan, done: Callable[[bool], None]) -> None:
        if self.stack.ipv4_address is not None:
            self._flow_v4(plan, done)
            return
        if self.phase.dns_v6 and self._has_global_v6():
            if plan.a_only_in_v6:
                # The a2.tuyaus.com case (§5.1.3): the record exists, but the
                # firmware only ever asks for A — so IPv6-only still bricks.
                self.stack.resolve(plan.name, TYPE_A, 6, lambda msg: done(False))
                return

            def with_answer(msg):
                answers = msg.answers_of_type(TYPE_AAAA) if msg is not None else []
                if not answers:
                    done(False)
                    return
                self._tcp_flow(answers[0].rdata, plan, 600, done)

            if not self.stack.resolve(plan.name, TYPE_AAAA, 6, with_answer):
                done(False)
            return
        done(False)

    # ---------------------------------------------------------------- identity

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def mac(self):
        return self.stack.mac

    def __repr__(self) -> str:
        return f"IoTDevice({self.profile.name})"
