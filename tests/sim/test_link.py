"""Unit tests for the switched Ethernet link and NIC filtering."""

from repro.net import Ethernet, MacAddress, Raw
from repro.net.ip6 import multicast_mac
from repro.sim import EthernetLink, Nic, Node, Simulator


class Sink(Node):
    def __init__(self, sim, name, mac, link, promiscuous=False):
        super().__init__(sim, name)
        self.received = []
        self.nic = self.add_nic(Nic(self, MacAddress(mac), link, promiscuous=promiscuous))

    def handle_frame(self, nic, frame):
        self.received.append(frame)


def build(promiscuous_c=False):
    sim = Simulator()
    link = EthernetLink(sim)
    a = Sink(sim, "a", "02:00:00:00:00:0a", link)
    b = Sink(sim, "b", "02:00:00:00:00:0b", link)
    c = Sink(sim, "c", "02:00:00:00:00:0c", link, promiscuous=promiscuous_c)
    return sim, link, a, b, c


def frame(dst, src, payload=b"hi"):
    return Ethernet(MacAddress(dst), MacAddress(src), 0x1234, Raw(payload))


class TestDelivery:
    def test_unicast_reaches_only_owner(self):
        sim, link, a, b, c = build()
        a.nic.send(frame(b.nic.mac, a.nic.mac))
        sim.run(1.0)
        assert len(b.received) == 1
        assert not a.received and not c.received

    def test_broadcast_floods(self):
        sim, link, a, b, c = build()
        a.nic.send(frame(MacAddress.BROADCAST, a.nic.mac))
        sim.run(1.0)
        assert len(b.received) == 1 and len(c.received) == 1
        assert not a.received  # no self-delivery

    def test_promiscuous_nic_sees_unicast(self):
        sim, link, a, b, c = build(promiscuous_c=True)
        a.nic.send(frame(b.nic.mac, a.nic.mac))
        sim.run(1.0)
        assert len(b.received) == 1
        assert len(c.received) == 1

    def test_multicast_requires_group_membership(self):
        sim, link, a, b, c = build()
        group = multicast_mac("ff02::fb")
        a.nic.send(frame(group, a.nic.mac))
        sim.run(1.0)
        assert not b.received
        b.nic.join_multicast(group)
        a.nic.send(frame(group, a.nic.mac))
        sim.run(1.0)
        assert len(b.received) == 1

    def test_all_nodes_group_joined_by_default(self):
        sim, link, a, b, c = build()
        a.nic.send(frame(multicast_mac("ff02::1"), a.nic.mac))
        sim.run(1.0)
        assert len(b.received) == 1 and len(c.received) == 1


class TestTaps:
    def test_tap_sees_every_frame(self):
        sim, link, a, b, c = build()
        captured = []
        link.add_tap(lambda ts, frame: captured.append(frame))
        a.nic.send(frame(b.nic.mac, a.nic.mac))
        a.nic.send(frame(MacAddress.BROADCAST, a.nic.mac))
        sim.run(1.0)
        assert len(captured) == 2

    def test_tap_removal(self):
        sim, link, a, b, c = build()
        captured = []
        tap = lambda ts, frame: captured.append(frame)
        link.add_tap(tap)
        link.remove_tap(tap)
        a.nic.send(frame(b.nic.mac, a.nic.mac))
        sim.run(1.0)
        assert not captured

    def test_tap_timestamp_is_transmit_time(self):
        sim, link, a, b, c = build()
        stamps = []
        link.add_tap(lambda ts, frame: stamps.append(ts))
        sim.run(5.0)
        a.nic.send(frame(b.nic.mac, a.nic.mac))
        assert stamps == [5.0]

    def test_latency_delays_delivery(self):
        sim = Simulator()
        link = EthernetLink(sim, latency=0.5)
        a = Sink(sim, "a", "02:00:00:00:00:0a", link)
        b = Sink(sim, "b", "02:00:00:00:00:0b", link)
        a.nic.send(frame(b.nic.mac, a.nic.mac))
        sim.run_until(0.4)
        assert not b.received
        sim.run_until(0.6)
        assert len(b.received) == 1


class TestFrameCounters:
    def test_rates_on_idle_link_are_zero_not_an_error(self):
        """A link that has carried nothing reports 0.0 for its rate —
        reading stats before traffic flows must never raise ZeroDivisionError."""
        link = EthernetLink(Simulator())
        assert link.frames.encode_count == 0
        assert link.frames.prime_rate == 0.0


def flood_lab(count):
    sim = Simulator()
    link = EthernetLink(sim)
    sinks = [Sink(sim, f"s{i}", f"02:00:00:00:01:{i:02x}", link) for i in range(count)]
    tapped = []
    link.add_tap(lambda ts, frame: tapped.append(frame))
    return sim, link, sinks, tapped


class TestStructuredWire:
    def test_flood_hands_everyone_the_senders_object(self):
        """A multicast frame reaches N NICs plus the capture tap as the
        sender's own object: one transmission and no parse."""
        sim, link, sinks, tapped = flood_lab(10)
        sender = sinks[0]
        flood = frame(multicast_mac("ff02::1"), sender.nic.mac, b"ra")
        sender.nic.send(flood)
        sim.run(1.0)

        assert all(len(s.received) == 1 for s in sinks[1:])
        delivered = [s.received[0] for s in sinks[1:]] + tapped
        assert len(delivered) == 10
        assert all(f is flood for f in delivered)
        assert (link.frames.encode_count, link.frames.decode_count) == (1, 0)
        assert link.frames.primes == 1

    def test_send_raw_parses_once(self):
        """``send_raw`` parses its bytes once; every receiver and the tap
        then share that one object."""
        sim, link, sinks, tapped = flood_lab(5)
        data = frame(multicast_mac("ff02::1"), sinks[0].nic.mac, b"ra").encode()
        sinks[0].nic.send_raw(data)
        sim.run(1.0)

        assert all(len(s.received) == 1 for s in sinks[1:])
        delivered = [s.received[0] for s in sinks[1:]] + tapped
        assert all(f is delivered[0] for f in delivered)
        assert delivered[0].encode() == data
        assert link.frames.decode_count == 1
        assert link.frames.decode_errors == 0

    def test_send_raw_drops_bytes_that_do_not_parse(self):
        sim, link, sinks, tapped = flood_lab(3)
        sinks[0].nic.send_raw(b"\xff" * 7)
        sim.run(1.0)

        assert not tapped
        assert not any(s.received for s in sinks)
        assert link.frames.decode_errors == 1
        assert link.frames.encode_count == 0

    def test_unicast_reaches_only_its_owner(self):
        sim, link, sinks, tapped = flood_lab(3)
        a, b, c = sinks
        sent = frame(b.nic.mac, a.nic.mac, b"x")
        a.nic.send(sent)
        sim.run(1.0)

        assert len(b.received) == 1 and b.received[0] is sent
        assert not a.received and not c.received
        assert len(tapped) == 1 and tapped[0] is sent
        assert (link.frames.encode_count, link.frames.decode_count) == (1, 0)
