"""The analysis session: parsed captures + per-device feature flags.

``StudyAnalysis`` parses every experiment's capture once and derives, for
each device and experiment, the observable feature flags the paper's tables
are built from (NDP traffic, address assignment, DNS behaviour per family,
data transmission, DHCPv6 activity, functionality).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Optional

from repro.core.capture import CaptureIndex
from repro.core.meta import DeviceMeta, metadata_from_profiles
from repro.net.dns import TYPE_A, TYPE_AAAA
from repro.net.ip6 import AddressScope, mac_from_eui64
from repro.testbed.study import Study

IPV6_ONLY_EXPERIMENTS = ("ipv6-only", "ipv6-only-rdnss", "ipv6-only-stateful")
DUAL_STACK_EXPERIMENTS = ("dual-stack", "dual-stack-stateful")
V6_ENABLED_EXPERIMENTS = IPV6_ONLY_EXPERIMENTS + DUAL_STACK_EXPERIMENTS

# Address counting window (Table 6, Fig. 3, DAD §5.2.1): one IPv6-only plus
# one dual-stack run, so that privacy-extension rotation is counted once.
ADDRESS_WINDOW = ("ipv6-only", "dual-stack")


@dataclass
class DeviceFlags:
    """Observable per-device feature flags in one experiment (or a union)."""

    ndp: bool = False
    addr: bool = False
    gua: bool = False
    ula: bool = False
    lla: bool = False
    eui64_addr: bool = False
    gua_eui64: bool = False
    dns_v6: bool = False                  # DNS traffic over an IPv6 transport
    aaaa_v6: bool = False                 # AAAA queries over IPv6
    aaaa_v4: bool = False                 # AAAA queries over IPv4
    aaaa_any: bool = False
    aaaa_v4_only_names: bool = False      # >=1 name AAAA'd only over IPv4
    a_only_v6: bool = False               # >=1 name A-only over IPv6
    aaaa_resp: bool = False               # >=1 positive AAAA answer (any family)
    aaaa_resp_v6: bool = False
    aaaa_unanswered: bool = False         # >=1 AAAA query without an answer
    stateless_dhcpv6: bool = False
    stateful_dhcpv6: bool = False
    data_internet_v6: bool = False
    data_local_v6: bool = False
    data_v6: bool = False
    functional: bool = False

    def union(self, other: "DeviceFlags") -> "DeviceFlags":
        merged = DeviceFlags()
        for f in fields(DeviceFlags):
            setattr(merged, f.name, getattr(self, f.name) or getattr(other, f.name))
        return merged


def union_all(flag_maps: Iterable[dict[str, DeviceFlags]]) -> dict[str, DeviceFlags]:
    result: dict[str, DeviceFlags] = {}
    for flag_map in flag_maps:
        for device, flags in flag_map.items():
            result[device] = result[device].union(flags) if device in result else flags
    return result


class StudyAnalysis:
    """Parsed study + derived flags; shared by every table/figure builder."""

    def __init__(self, study: Study, metadata: Optional[dict[str, DeviceMeta]] = None):
        self.study = study
        self.metadata = metadata or metadata_from_profiles(study.testbed.profiles)
        self.devices = list(self.metadata)
        self.mac_table = {meta.mac: name for name, meta in self.metadata.items()}
        self.device_mac = {name: meta.mac for name, meta in self.metadata.items()}

    # ------------------------------------------------------------ raw indexes

    @cached_property
    def indexes(self) -> dict[str, CaptureIndex]:
        # The common case (metadata derived from the testbed profiles) shares
        # the Study's per-experiment indexes with every other consumer, so the
        # captures are parsed exactly once. Custom metadata (offline replay,
        # ablations) changes device attribution, so those sessions index with
        # their own MAC table.
        if self.mac_table == self.study.mac_table:
            return self.study.shared_indexes()
        return {
            name: CaptureIndex(result.records, self.mac_table, flow_records=result.flow_records)
            for name, result in self.study.experiments.items()
        }

    def index(self, experiment: str) -> CaptureIndex:
        return self.indexes[experiment]

    # -------------------------------------------------------------- flag maps

    @cached_property
    def flags_by_experiment(self) -> dict[str, dict[str, DeviceFlags]]:
        return {
            name: self._flags_for(self.indexes[name], self.study.experiments[name].functionality)
            for name in self.study.experiments
        }

    def _flags_for(self, index: CaptureIndex, functionality: dict[str, bool]) -> dict[str, DeviceFlags]:
        flags = {device: DeviceFlags() for device in self.devices}

        for device in index.devices_with_ndp():
            if device in flags:
                flags[device].ndp = True

        for device, table in index.addresses.items():
            if device not in flags:
                continue
            f = flags[device]
            mac = self.device_mac[device]
            for obs in table.values():
                f.addr = True
                if obs.scope is AddressScope.GUA:
                    f.gua = True
                elif obs.scope is AddressScope.ULA:
                    f.ula = True
                elif obs.scope is AddressScope.LLA:
                    f.lla = True
                if mac_from_eui64(obs.address) == mac:
                    f.eui64_addr = True
                    if obs.scope is AddressScope.GUA:
                        f.gua_eui64 = True

        aaaa_by_family: dict[str, dict[int, set]] = {}
        a_v6_names: dict[str, set] = {}
        for query in index.dns_queries:
            if query.device not in flags:
                continue
            f = flags[query.device]
            if query.family == 6:
                f.dns_v6 = True
            if query.qtype == TYPE_AAAA:
                f.aaaa_any = True
                store = aaaa_by_family.setdefault(query.device, {4: set(), 6: set()})
                store[query.family].add(query.name)
                if query.family == 6:
                    f.aaaa_v6 = True
                else:
                    f.aaaa_v4 = True
            elif query.qtype == TYPE_A and query.family == 6:
                a_v6_names.setdefault(query.device, set()).add(query.name)

        answered: dict[str, set] = {}
        for response in index.dns_responses:
            if response.device not in flags or response.qtype != TYPE_AAAA:
                continue
            if response.answered:
                flags[response.device].aaaa_resp = True
                answered.setdefault(response.device, set()).add(response.name)
                if response.family == 6:
                    flags[response.device].aaaa_resp_v6 = True

        for device, store in aaaa_by_family.items():
            f = flags[device]
            if store[4] - store[6]:
                f.aaaa_v4_only_names = True
            if (store[4] | store[6]) - answered.get(device, set()):
                f.aaaa_unanswered = True
        for device, names in a_v6_names.items():
            queried_aaaa = set()
            store = aaaa_by_family.get(device)
            if store:
                queried_aaaa = store[4] | store[6]
            if names - queried_aaaa:
                flags[device].a_only_v6 = True

        for event in index.dhcp_events:
            if event.device not in flags or event.protocol != "dhcpv6":
                continue
            if event.msg_type == 11:  # INFORMATION-REQUEST
                flags[event.device].stateless_dhcpv6 = True
            elif event.msg_type in (1, 3, 5):  # SOLICIT / REQUEST / RENEW
                flags[event.device].stateful_dhcpv6 = True

        for device in index.internet_data_devices(6):
            if device in flags:
                flags[device].data_internet_v6 = True
                flags[device].data_v6 = True
        for device in index.local_data_devices(6):
            if device in flags:
                flags[device].data_local_v6 = True
                flags[device].data_v6 = True

        for device, ok in functionality.items():
            if device in flags:
                flags[device].functional = ok
        return flags

    # ------------------------------------------------------------- groupings

    def _union_of(self, names: Iterable[str]) -> dict[str, DeviceFlags]:
        return union_all(self.flags_by_experiment[n] for n in names if n in self.flags_by_experiment)

    @cached_property
    def ipv6_only_flags(self) -> dict[str, DeviceFlags]:
        return self._union_of(IPV6_ONLY_EXPERIMENTS)

    @cached_property
    def dual_stack_flags(self) -> dict[str, DeviceFlags]:
        return self._union_of(DUAL_STACK_EXPERIMENTS)

    @cached_property
    def union_flags(self) -> dict[str, DeviceFlags]:
        return self._union_of(V6_ENABLED_EXPERIMENTS)

    # ------------------------------------------------------------- utilities

    def count(self, flags: dict[str, DeviceFlags], predicate) -> int:
        return sum(1 for device in self.devices if predicate(flags[device]))

    def count_by_category(self, flags: dict[str, DeviceFlags], predicate) -> dict:
        from repro.core.meta import CATEGORY_ORDER

        counts = {category: 0 for category in CATEGORY_ORDER}
        for device in self.devices:
            if predicate(flags[device]):
                counts[self.metadata[device].category] += 1
        return counts
