"""Neighbor (NDP) and ARP caches with pending-packet queues."""

from __future__ import annotations

from repro.net.mac import MacAddress


# What an entry with nothing queued holds: every resolved neighbour shares
# this one value, and an address gets its own list only when a packet waits.
_NOTHING_PENDING = ()


class _Entry:
    __slots__ = ("mac", "pending")

    def __init__(self):
        self.mac: MacAddress | None = None
        self.pending: list | tuple = _NOTHING_PENDING


class ResolutionCache:
    """Maps L3 addresses to MACs; queues packets awaiting resolution.

    Shared by the IPv6 neighbor cache and the IPv4 ARP cache — the state
    machine (queue while unresolved, flush on learn) is identical.
    """

    def __init__(self, max_pending: int = 512):
        self._entries: dict = {}
        self._max_pending = max_pending

    def lookup(self, addr) -> MacAddress | None:
        entry = self._entries.get(addr)
        return entry.mac if entry else None

    def learn(self, addr, mac: MacAddress) -> list | tuple:
        """Record a mapping; returns queued packets now deliverable, in the
        order they were queued.

        The router calls this for every LAN frame it receives, so the
        steady-state path (entry exists, nothing queued) must not allocate.
        """
        entry = self._entries.get(addr)
        if entry is None:
            entry = self._entries[addr] = _Entry()
        entry.mac = mac if type(mac) is MacAddress else MacAddress(mac)
        pending = entry.pending
        if pending:
            entry.pending = _NOTHING_PENDING
        return pending

    def enqueue(self, addr, item) -> bool:
        """Queue an item pending resolution; returns False if this address
        already has an in-flight resolution (no new solicitation needed).
        An address holds at most ``max_pending`` items; later ones drop."""
        entry = self._entries.get(addr)
        if entry is None:
            entry = self._entries[addr] = _Entry()
        pending = entry.pending
        if not pending:
            entry.pending = [item]
            return True
        if len(pending) < self._max_pending:
            pending.append(item)
        return False

    def entries(self) -> dict:
        """A snapshot of resolved mappings (the router's ``ip -6 neigh``)."""
        return {addr: e.mac for addr, e in self._entries.items() if e.mac is not None}

    def flush(self) -> None:
        self._entries.clear()
