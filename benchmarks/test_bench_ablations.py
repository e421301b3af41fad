"""Ablation benchmarks — the counterfactuals the paper's discussion argues.

These go beyond reproduction: each ablation re-runs the IPv6-only experiment
on a modified world to test a causal claim from the paper.

- §5.1.3 claims most IPv6-only failures (among devices with full IPv6
  support) are DNS-side: *if the essential destinations had AAAA records,
  those devices would work*. `test_bench_ablation_universal_aaaa` gives every
  v6-DNS-capable device AAAA-ready essentials and measures functionality.
- §5.4.1 quantifies EUI-64 exposure under today's mixed identifier policies.
  `test_bench_ablation_no_privacy_extensions` switches every device to
  EUI-64 identifiers (the world before RFC 4941/8981) and re-measures how
  many devices leak their MAC in global addresses.
"""

import dataclasses

from repro.core.analysis import StudyAnalysis
from repro.core.meta import metadata_from_profiles
from repro.core.privacy import eui64_exposure
from repro.devices import build_inventory
from repro.stack.config import DUAL_STACK, IPV6_ONLY
from repro.testbed import Testbed, run_connectivity_experiment
from repro.testbed.study import Study


def _run_ipv6_only(profiles, seed=21, extra=()):  # -> (Study, StudyAnalysis)
    testbed = Testbed(seed=seed, profiles=profiles)
    study = Study(testbed=testbed)
    study.experiments["ipv6-only"] = run_connectivity_experiment(testbed, IPV6_ONLY)
    for config in extra:
        study.experiments[config.name] = run_connectivity_experiment(testbed, config)
    return study, StudyAnalysis(study, metadata_from_profiles(profiles))


def test_bench_ablation_universal_aaaa(benchmark, record):
    """If every essential destination had AAAA records, who would work?"""

    def with_aaaa_essentials(profile):
        if not (profile.v6only.dns_v6 and profile.v6only.data_v6 and not profile.portfolio.essential_aaaa):
            return profile
        portfolio = dataclasses.replace(
            profile.portfolio,
            essential_aaaa=True,
            # the essentials now resolve, so the answered-name budget grows
            aaaa_resp_names=profile.portfolio.aaaa_resp_names + profile.portfolio.essential,
        )
        return dataclasses.replace(profile, portfolio=portfolio)

    def run():
        profiles = [with_aaaa_essentials(profile) for profile in build_inventory()]
        study, analysis = _run_ipv6_only(profiles)
        functional = sorted(d for d, ok in study.experiments["ipv6-only"].functionality.items() if ok)
        return functional

    functional = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = 8
    text = (
        "Ablation: universal AAAA records on essential destinations\n"
        f"functional devices in IPv6-only: {len(functional)} (baseline {baseline})\n"
        + "\n".join(f"  {name}" for name in functional)
    )
    record("ablation_universal_aaaa", text)
    # The paper's §5.1.3 claim: DNS readiness, not the device stack, blocks
    # most fully-IPv6-capable devices.
    assert len(functional) >= baseline + 6


def test_bench_ablation_no_privacy_extensions(benchmark, record):
    """A pre-RFC-4941 world: every identifier policy reverts to EUI-64."""

    def run():
        profiles = [dataclasses.replace(profile, iid_mode="eui64", gua_iid_mode="") for profile in build_inventory()]
        study, analysis = _run_ipv6_only(profiles, extra=(DUAL_STACK,))
        return eui64_exposure(analysis)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation: no SLAAC privacy extensions (all EUI-64)\n"
        f"devices assigning GUA EUI-64: {len(report.assigned)} (baseline 15)\n"
        f"devices exposing EUI-64 in traffic: {len(report.used)} (baseline 8)\n"
    )
    record("ablation_no_privacy_extensions", text)
    # All 31 GUA-capable devices now leak their MAC in a global address.
    assert len(report.assigned) >= 28
    assert len(report.used) > 8


def test_bench_ablation_rdnss_only_config(benchmark, record):
    """The paper's RDNSS-only variation: who loses DNS without DHCPv6?"""
    from repro.stack.config import IPV6_ONLY_RDNSS

    def run():
        profiles = build_inventory()
        testbed = Testbed(seed=23, profiles=profiles)
        study = Study(testbed=testbed)
        study.experiments["ipv6-only"] = run_connectivity_experiment(testbed, IPV6_ONLY)
        study.experiments["ipv6-only-rdnss"] = run_connectivity_experiment(testbed, IPV6_ONLY_RDNSS)
        analysis = StudyAnalysis(study, metadata_from_profiles(profiles))
        baseline = {d for d, f in analysis.flags_by_experiment["ipv6-only"].items() if f.dns_v6}
        rdnss_only = {d for d, f in analysis.flags_by_experiment["ipv6-only-rdnss"].items() if f.dns_v6}
        return baseline, rdnss_only

    baseline, rdnss_only = benchmark.pedantic(run, rounds=1, iterations=1)
    lost = sorted(baseline - rdnss_only)
    text = (
        "Ablation: RDNSS-only DNS configuration (no stateless DHCPv6)\n"
        f"devices with IPv6 DNS, baseline: {len(baseline)}\n"
        f"devices with IPv6 DNS, RDNSS-only: {len(rdnss_only)}\n"
        f"lost: {lost}"
    )
    record("ablation_rdnss_only", text)
    # §5.2.1: exactly one device (Vizio TV) needs DHCPv6 for DNS discovery.
    assert lost == ["Vizio TV"]
