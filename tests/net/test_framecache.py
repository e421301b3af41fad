"""Unit tests for the decode-once FrameCache and its link integration."""

import pytest

from repro.net import Ethernet, MacAddress, Raw
from repro.net.framecache import FrameCache
from repro.net.ip6 import multicast_mac
from repro.sim import EthernetLink, Nic, Node, Simulator

MAC_A = MacAddress("02:00:00:00:00:0a")
MAC_B = MacAddress("02:00:00:00:00:0b")


def frame_bytes(payload=b"hello") -> bytes:
    return Ethernet(MAC_B, MAC_A, 0x1234, Raw(payload)).encode()


class TestFrameCache:
    def test_second_decode_is_a_hit_and_shares_the_object(self):
        cache = FrameCache()
        data = frame_bytes()
        first = cache.decode(data)
        second = cache.decode(data)
        assert first is second
        assert (cache.misses, cache.hits) == (1, 1)
        assert len(cache) == 1

    def test_distinct_frames_each_miss_once(self):
        cache = FrameCache()
        cache.decode(frame_bytes(b"one"))
        cache.decode(frame_bytes(b"two"))
        assert (cache.misses, cache.hits) == (2, 0)

    def test_garbage_cached_as_none(self):
        cache = FrameCache()
        assert cache.decode(b"\x00" * 7) is None
        assert cache.decode(b"\x00" * 7) is None
        assert cache.decode_errors == 1  # the error is paid once, then cached
        assert (cache.misses, cache.hits) == (1, 1)

    def test_hit_rate(self):
        cache = FrameCache()
        assert cache.hit_rate == 0.0
        data = frame_bytes()
        cache.decode(data)
        cache.decode(data)
        cache.decode(data)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_rates_on_untouched_cache_are_zero_not_an_error(self):
        """A cache that has observed nothing reports 0.0 for every rate —
        reading stats before traffic flows must never raise ZeroDivisionError."""
        cache = FrameCache()
        assert cache.hit_rate == 0.0
        assert cache.prime_rate == 0.0

    def test_prime_rate_counts_prime_outcomes(self):
        cache = FrameCache()
        data = frame_bytes()
        frame = Ethernet(MAC_B, MAC_A, 0x1234, Raw(b"hello"))
        cache.prime(data, frame)
        assert cache.prime_rate == 1.0      # one prime, no prime hits yet
        cache.prime(data, frame)            # re-prime of a cached key
        assert cache.prime_rate == 0.5
        assert cache.hit_rate == 0.0        # decode counters untouched

    def test_clear_forgets_entries_not_counters(self):
        cache = FrameCache()
        data = frame_bytes()
        cache.decode(data)
        cache.clear()
        cache.decode(data)
        assert cache.misses == 2


class Sink(Node):
    def __init__(self, sim, name, mac, link):
        super().__init__(sim, name)
        self.received = []
        self.nic = self.add_nic(Nic(self, MacAddress(mac), link))

    def handle_frame(self, nic, frame):
        self.received.append(frame)


class TestPrime:
    def test_prime_installs_the_senders_object(self):
        cache = FrameCache()
        frame = Ethernet(MAC_B, MAC_A, 0x1234, Raw(b"hello"))
        data = frame.encode()
        assert cache.prime(data, frame) is frame
        assert cache.decode(data) is frame  # no parse: the primed object wins
        assert (cache.primes, cache.misses, cache.hits) == (1, 0, 1)

    def test_reprime_keeps_the_first_object(self):
        """Byte-identical retransmits share one object, like decode does."""
        cache = FrameCache()
        first = Ethernet(MAC_B, MAC_A, 0x1234, Raw(b"ra"))
        second = Ethernet(MAC_B, MAC_A, 0x1234, Raw(b"ra"))
        data = first.encode()
        assert cache.prime(data, first) is first
        assert cache.prime(second.encode(), second) is first
        assert (cache.primes, cache.prime_hits) == (1, 1)
        assert cache.encode_count == 2
        assert cache.prime_rate == pytest.approx(0.5)


class TestMulticastFlood:
    def test_flood_costs_zero_decodes(self):
        """A sender-primed multicast frame reaches N NICs plus the capture
        tap without a single ``Ethernet.decode``."""
        sim = Simulator()
        link = EthernetLink(sim)
        sinks = [Sink(sim, f"s{i}", f"02:00:00:00:01:{i:02x}", link) for i in range(10)]
        tapped = []
        link.add_frame_tap(lambda ts, data, decoded: tapped.append(decoded))

        sender = sinks[0]
        flood = Ethernet(multicast_mac("ff02::1"), sender.nic.mac, 0x1234, Raw(b"ra"))
        sender.nic.send(flood)
        sim.run(1.0)

        assert all(len(s.received) == 1 for s in sinks[1:])
        assert link.frames.primes == 1  # the sender primed the cache
        assert link.frames.decode_count == 0  # nobody parsed
        # every consumer shares the sender's own object
        delivered = [s.received[0] for s in sinks[1:]] + tapped
        assert all(f is flood for f in delivered)

    def test_raw_transmit_still_decodes_once(self):
        """``send_raw`` has no structured object; the flood falls back to
        the decode-once cache (one miss) and the switch loop then hands the
        same object to every later receiver without re-probing the cache."""
        sim = Simulator()
        link = EthernetLink(sim)
        sinks = [Sink(sim, f"s{i}", f"02:00:00:00:01:{i:02x}", link) for i in range(5)]
        data = Ethernet(multicast_mac("ff02::1"), sinks[0].nic.mac, 0x1234, Raw(b"ra")).encode()
        sinks[0].nic.send_raw(data)
        sim.run(1.0)

        assert all(len(s.received) == 1 for s in sinks[1:])
        assert link.frames.misses == 1
        assert link.frames.hits == 0  # the delivery loop holds the object
        delivered = [s.received[0] for s in sinks[1:]]
        assert all(f is delivered[0] for f in delivered)

    def test_filtered_frames_never_decode(self):
        """A NIC that drops a unicast frame by destination pays no parse."""
        sim = Simulator()
        link = EthernetLink(sim)
        a = Sink(sim, "a", "02:00:00:00:00:0a", link)
        b = Sink(sim, "b", "02:00:00:00:00:0b", link)
        Sink(sim, "c", "02:00:00:00:00:0c", link)

        a.nic.send(Ethernet(b.nic.mac, a.nic.mac, 0x1234, Raw(b"x")))
        sim.run(1.0)

        assert len(b.received) == 1
        assert link.frames.decode_count == 0  # primed; nobody had to parse
        assert link.frames.encode_count == 1
