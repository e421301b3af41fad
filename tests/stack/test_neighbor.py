"""The neighbour (NDP) and ARP cache: lookups, pending queues, snapshots."""

import ipaddress

from repro.net.mac import MacAddress
from repro.stack.neighbor import ResolutionCache

ROUTER = ipaddress.IPv6Address("fe80::1")
PEER = ipaddress.IPv6Address("2001:db8::7")
OTHER = ipaddress.IPv6Address("2001:db8::8")
MAC = MacAddress("02:00:00:00:00:07")


def test_lookup_after_learn():
    cache = ResolutionCache()
    assert cache.lookup(PEER) is None
    assert not cache.learn(PEER, MAC)
    assert cache.lookup(PEER) == MAC


def test_learn_takes_the_mac_as_text():
    cache = ResolutionCache()
    cache.learn(PEER, "02:00:00:00:00:07")
    assert type(cache.lookup(PEER)) is MacAddress
    assert cache.lookup(PEER) == MAC


def test_only_the_first_packet_on_an_unresolved_address_asks_for_resolution():
    cache = ResolutionCache()
    assert cache.enqueue(PEER, "first") is True
    assert cache.enqueue(PEER, "second") is False
    assert cache.enqueue(ROUTER, "other address") is True
    assert cache.lookup(PEER) is None


def test_the_queue_holds_at_most_max_pending_items():
    cache = ResolutionCache(max_pending=2)
    assert [cache.enqueue(PEER, n) for n in range(4)] == [True, False, False, False]
    assert list(cache.learn(PEER, MAC)) == [0, 1]


def test_learn_returns_the_queue_in_order_once():
    cache = ResolutionCache()
    for n in range(3):
        cache.enqueue(PEER, n)
    assert list(cache.learn(PEER, MAC)) == [0, 1, 2]
    assert list(cache.learn(PEER, MAC)) == []
    # Queued again after the flush, the next packet asks for resolution anew.
    assert cache.enqueue(PEER, 3) is True


def test_learned_addresses_share_one_empty_queue():
    cache = ResolutionCache()
    nothing = cache.learn(PEER, MAC)
    assert nothing == () and cache.learn(ROUTER, MAC) is nothing
    # Delivering a queue leaves the shared empty value behind, not a new list.
    cache.enqueue(OTHER, "waiting")
    assert cache.learn(OTHER, MAC) == ["waiting"]
    assert cache.learn(OTHER, MAC) is nothing


def test_entries_lists_only_resolved_addresses():
    cache = ResolutionCache()
    cache.enqueue(ROUTER, "waiting")
    cache.learn(PEER, MAC)
    assert cache.entries() == {PEER: MAC}
    cache.learn(ROUTER, MAC)
    assert cache.entries() == {ROUTER: MAC, PEER: MAC}


def test_entries_keep_the_order_addresses_were_first_seen():
    """The port scanner walks the router's table in this order."""
    cache = ResolutionCache()
    cache.enqueue(ROUTER, "waiting")
    cache.learn(PEER, MAC)
    cache.learn(ROUTER, MAC)
    assert list(cache.entries()) == [ROUTER, PEER]


def test_flush_forgets_mappings_and_queues():
    cache = ResolutionCache()
    cache.learn(PEER, MAC)
    cache.enqueue(ROUTER, "waiting")
    cache.flush()
    assert cache.lookup(PEER) is None
    assert cache.entries() == {}
    assert cache.enqueue(ROUTER, "again") is True
    assert list(cache.learn(ROUTER, MAC)) == ["again"]
