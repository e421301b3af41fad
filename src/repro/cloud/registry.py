"""The authoritative DNS registry for the simulated Internet.

Every destination domain a device contacts is registered here with its A and
(optionally) AAAA records. Addresses are allocated deterministically so that
repeated runs of the study resolve identically.
"""

from __future__ import annotations

import ipaddress

from repro.net.ip6 import as_ipv6
from repro.net.ipv4 import as_ipv4
from dataclasses import dataclass, field
from typing import Optional

V4_POOL_BASE = int(as_ipv4("34.0.0.1"))
V6_POOL_BASE = int(as_ipv6("2600:9000::1"))


@dataclass
class DomainRecord:
    """One registered domain and its resolution behaviour."""

    name: str
    a_records: list = field(default_factory=list)
    aaaa_records: list = field(default_factory=list)
    v6_reachable: bool = True   # AAAA may exist yet the host be unreachable (§7)

    @property
    def has_aaaa(self) -> bool:
        return bool(self.aaaa_records)

    @property
    def has_a(self) -> bool:
        return bool(self.a_records)


class DnsRegistry:
    """Authoritative name → record store with deterministic allocation."""

    def __init__(self):
        self._domains: dict[str, DomainRecord] = {}
        self._v4_cursor = 0
        self._v6_cursor = 0

    def _alloc_v4(self) -> ipaddress.IPv4Address:
        # Skip .0 and .255 host bytes for realism.
        while True:
            value = V4_POOL_BASE + self._v4_cursor
            self._v4_cursor += 1
            addr = as_ipv4(value)
            if addr.packed[3] not in (0, 255):
                return addr

    def _alloc_v6(self) -> ipaddress.IPv6Address:
        value = V6_POOL_BASE + (self._v6_cursor << 64)
        self._v6_cursor += 1
        return as_ipv6(value)

    def register(
        self,
        name: str,
        *,
        v4: bool = True,
        v6: bool = False,
        v6_reachable: bool = True,
    ) -> DomainRecord:
        """Register a domain, allocating addresses for the requested families.

        Re-registering an existing name upgrades it (e.g. adds AAAA) rather
        than reallocating, so multiple devices can share a destination.
        """
        name = name.rstrip(".").lower()
        record = self._domains.get(name)
        if record is None:
            record = DomainRecord(name)
            self._domains[name] = record
        if v4 and not record.a_records:
            record.a_records.append(self._alloc_v4())
        if v6 and not record.aaaa_records:
            record.aaaa_records.append(self._alloc_v6())
        if not v6_reachable:
            record.v6_reachable = False
        return record

    def lookup(self, name: str) -> Optional[DomainRecord]:
        return self._domains.get(name.rstrip(".").lower())

    def domains(self) -> list[DomainRecord]:
        return list(self._domains.values())

    def __len__(self) -> int:
        return len(self._domains)

    def __contains__(self, name: str) -> bool:
        return name.rstrip(".").lower() in self._domains
