"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``study``    run the full measurement campaign and print every table/figure
- ``tables``   run the campaign and print only the selected tables
- ``pcap``     run the campaign and export per-experiment pcap files
- ``devices``  print the curated 93-device inventory summary
- ``fleet``    simulate N synthetic homes under a rollout scenario and print
  population-level analytics (bricked homes, IPv6 traffic share, EUI-64
  exposure)
- ``exposure`` scan N synthetic homes from the WAN under one or more router
  firewall modes and print the population attack surface (discoverable /
  reachable devices by address type)
- ``faults``   run N synthetic homes under injected network impairments
  (DNS outages, uplink flaps, RA suppression, ...) paired against clean runs
  and print the degradation grid (unaffected / recovered / degraded /
  bricked, with time-to-recover distributions)
- ``adversary`` run a scanning campaign (EUI-64 sweep, low-IID sweep, or
  hitlist replay) and worm outbreak against a fleet and print deterministic
  time-to-compromise curves by firewall mode, address kind and fleet mix
- ``lifecycle`` advance a fleet through simulated months: device churn,
  firmware updates, RFC 8981 address rotation and a staged ISP rollout
  wave, printing brick-rate / readiness / exposure trajectories per epoch

The five population commands share one engine (DESIGN.md §14):
``--shards N`` (alias ``--jobs N``) folds homes across N worker processes in
O(shards) memory, and the report is byte-identical at any N. ``--journal``
makes a run resumable and ``--cache`` reuses studies across runs.

``faults --list-presets`` and ``lifecycle --list-waves`` print the known
preset/wave names one per line and exit 0 without running anything.

Every simulation command but ``pcap`` accepts ``--fidelity {packet,flow}``:
``flow`` advances steady-state data flows as aggregate records (DESIGN.md
§13) and produces byte-identical analysis output several times faster.
``pcap`` always runs packet fidelity, because a pcap file cannot hold the
flow records.

Population commands exit 2 when no work was generated (e.g. ``--homes 0``)
or the arguments are invalid (negative seed, non-positive timeout, duplicate
spec names, unknown scenario/preset), and 1 when any home worker failed,
after printing whatever completed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import Callable, NamedTuple

TABLE_CHOICES = ["2", "3", "4", "5", "6", "7", "8", "9", "10", "12", "13"]
FIGURE_CHOICES = ["2", "3", "4", "5"]

# Mirrors repro.faults.population defaults (kept literal: the CLI must not
# import simulation modules before a subcommand actually needs them).
_DEFAULT_FAULT_CONFIGS = ("dual-stack", "ipv6-only")
_DEFAULT_FAULT_NAMES = ("dns-blackout", "uplink-flap")

# Mirrors repro.stack.config.FIDELITY_MODES (same literal-import rule).
_FIDELITY_MODES = ("packet", "flow")

# Mirrors repro.stack.firewall.FIREWALL_MODES (same literal-import rule).
_FIREWALL_MODES = ("open", "stateful", "pinhole")

# The Table-2 configurations with a routed IPv6 prefix (same literal-import rule).
_IPV6_CONFIGS = ("ipv6-only", "ipv6-only-rdnss", "ipv6-only-stateful", "dual-stack", "dual-stack-stateful")


def _add_fidelity(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--fidelity",
        default="packet",
        choices=list(_FIDELITY_MODES),
        help="simulation fidelity: per-packet, or flow-level data plane (same analysis output)",
    )


def _add_population(sub, name: str, help: str, *, homes: int, budget: str) -> argparse.ArgumentParser:
    """A population subcommand with the arguments all five share."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--homes", type=_non_negative_int, default=homes, help="number of synthetic homes")
    parser.add_argument("--seed", type=_non_negative_int, default=42)
    parser.add_argument(
        "--shards",
        "--jobs",
        dest="shards",
        type=_positive_int,
        default=1,
        help="worker processes, each folding a contiguous slice of the homes (1 = in-process)",
    )
    parser.add_argument(
        "--timeout", type=_positive_float, default=None, help=f"per-{budget} wall-clock budget in seconds"
    )
    _add_fidelity(parser)
    parser.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="checkpoint shard aggregates here; re-running the same spec resumes",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=25,
        metavar="N",
        help="journal a shard's running aggregate every N completed homes",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="content-addressed study cache; re-runs reuse extracted artifacts",
    )
    return parser


def _report_cache(directory: str, before: dict) -> None:
    """Print this run's cache hit/miss delta to stderr (stdout untouched)."""
    from repro.cache import read_disk_stats

    after = read_disk_stats(directory)
    delta = {event: after[event] - before.get(event, 0) for event in after}
    hits = delta.get("hit-memory", 0) + delta.get("hit-disk", 0)
    print(
        f"cache: {hits} hit(s) ({delta.get('hit-disk', 0)} from disk), "
        f"{delta.get('miss', 0)} miss(es)",
        file=sys.stderr,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _reject_duplicates(what: str, values) -> None:
    """Raise ValueError when a name list repeats itself.

    Repeated scenario/spec names silently double-count cells in every
    aggregate, so they are an input error, not a request.
    """
    dups = list(dict.fromkeys(value for i, value in enumerate(values) if value in values[:i]))
    if dups:
        raise ValueError(f"duplicate {what}: {', '.join(str(d) for d in dups)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run everything, print all tables and figures")
    study.add_argument("--seed", type=int, default=42)
    study.add_argument("--no-scan", action="store_true", help="skip the port scans")
    _add_fidelity(study)

    tables = sub.add_parser("tables", help="run the campaign, print selected tables")
    tables.add_argument("numbers", nargs="+", choices=TABLE_CHOICES, metavar="N")
    tables.add_argument("--seed", type=int, default=42)
    _add_fidelity(tables)

    pcap = sub.add_parser("pcap", help="run the campaign, export pcap files")
    pcap.add_argument("directory")
    pcap.add_argument("--seed", type=int, default=42)

    sub.add_parser("devices", help="print the 93-device inventory")

    fleet = _add_population(
        sub, "fleet", "simulate a fleet of homes, print population analytics", homes=20, budget="home"
    )
    fleet.add_argument(
        "--scenario",
        default="flip50",
        help="rollout scenario name (e.g. baseline, flip25, flip50, ipv6-only, legacy, flipNN)",
    )

    exposure = _add_population(
        sub, "exposure", "WAN-scan a fleet of homes, print the population attack surface", homes=8, budget="scan"
    )
    exposure.add_argument(
        "--config",
        default="dual-stack",
        choices=list(_IPV6_CONFIGS),
        help="network configuration every home runs (must have IPv6)",
    )
    exposure.add_argument(
        "--firewall",
        nargs="+",
        default=list(_FIREWALL_MODES),
        choices=list(_FIREWALL_MODES),
        help="router firewall mode(s) to scan each home under",
    )

    faults = _add_population(
        sub, "faults", "inject network impairments into a fleet, print the degradation grid", homes=4, budget="home"
    )
    faults.add_argument(
        "--configs",
        nargs="+",
        default=list(_DEFAULT_FAULT_CONFIGS),
        choices=["ipv4-only", *_IPV6_CONFIGS],
        help="network configuration(s) every home runs under",
    )
    faults.add_argument(
        "--faults",
        nargs="+",
        default=list(_DEFAULT_FAULT_NAMES),
        metavar="PRESET",
        help="fault preset(s) to inject (e.g. dns-blackout, uplink-flap, v6-brownout, flaky-lan)",
    )
    faults.add_argument(
        "--list-presets", action="store_true", help="print the known fault preset names and exit"
    )

    lifecycle = _add_population(
        sub,
        "lifecycle",
        "advance a fleet through simulated months, print per-epoch trajectories",
        homes=4,
        budget="epoch",
    )
    lifecycle.add_argument("--epochs", type=_positive_int, default=6, help="simulated months per home")
    lifecycle.add_argument(
        "--wave",
        default="staged-v6only",
        help="ISP rollout wave (e.g. none, flash-cut, staged-v6only, v4-sunset, canary)",
    )
    lifecycle.add_argument(
        "--fault",
        default="none",
        metavar="PRESET",
        help="fault preset injected in each home's transition epochs (e.g. ra-blackout)",
    )
    lifecycle.add_argument(
        "--exposure", action="store_true", help="WAN-scan every epoch (IPv6-capable configs only)"
    )
    lifecycle.add_argument(
        "--no-rotation",
        action="store_true",
        help="disable RFC 8981 rotate-out on privacy-addressed devices",
    )
    lifecycle.add_argument("--leave-rate", type=float, default=0.06, help="per-device departure probability per epoch")
    lifecycle.add_argument("--join-rate", type=float, default=0.35, help="per-home arrival probability per epoch")
    lifecycle.add_argument(
        "--update-rate", type=float, default=0.18, help="per-device firmware-update probability per epoch"
    )
    lifecycle.add_argument(
        "--list-waves", action="store_true", help="print the known rollout wave names and exit"
    )

    adversary = _add_population(
        sub,
        "adversary",
        "run a scanning campaign + worm outbreak against a fleet, print time-to-compromise",
        homes=6,
        budget="home",
    )
    adversary.add_argument(
        "--scenario",
        default="baseline",
        help="rollout scenario the fleet mix is drawn from (e.g. baseline, flip50, stateful-rollout)",
    )
    adversary.add_argument(
        "--firewall",
        nargs="+",
        default=list(_FIREWALL_MODES),
        choices=list(_FIREWALL_MODES),
        help="router firewall mode(s) to run the outbreak under",
    )
    adversary.add_argument(
        "--strategy",
        default="eui64-sweep",
        choices=["eui64-sweep", "low-iid", "hitlist"],
        help="how the attacker (and the worm) targets addresses",
    )
    adversary.add_argument(
        "--fault",
        default="none",
        metavar="PRESET",
        help="fault schedule injected into every home (e.g. ra-settle-outage, dhcpv6-outage)",
    )
    adversary.add_argument("--scan-rate", type=float, default=2000.0, help="probes/sec per scanning vantage")
    adversary.add_argument("--dt", type=float, default=30.0, help="epidemic clock tick in seconds")
    adversary.add_argument("--horizon", type=float, default=3600.0, help="outbreak duration in seconds")
    adversary.add_argument(
        "--seeds", type=_positive_int, default=1, help="homes the bootstrap campaign compromises before it stops"
    )
    adversary.add_argument(
        "--recover", type=float, default=None, help="mean seconds before an infected home is patched (SIR removal)"
    )
    adversary.add_argument(
        "--hitlist-background",
        type=_non_negative_int,
        default=200_000,
        help="leaked addresses on the replay list beyond this population (hitlist strategy only)",
    )
    return parser


# ------------------------------------------------------- population commands


def _failures(aggregate) -> tuple:
    return aggregate.failed, aggregate.total_runs


class _Population(NamedTuple):
    """One population subcommand, its arguments validated and bound."""

    banner: str  # the stderr banner up to its seed; the driver adds the shard count
    run: Callable  # run_*_stream with everything but the shared engine arguments bound
    render: Callable  # aggregate -> report text
    failures: Callable = _failures  # aggregate -> (failed entries, total runs)


def _fleet(args) -> _Population:
    from repro.fleet import get_scenario, run_fleet_stream
    from repro.reports import render_fleet_summary

    scenario = get_scenario(args.scenario)
    return _Population(
        f"simulating {args.homes} homes (scenario={scenario.name}, seed={args.seed}",
        functools.partial(
            run_fleet_stream, args.homes, seed=args.seed, scenario=scenario, fidelity=args.fidelity
        ),
        render_fleet_summary,
        lambda aggregate: (aggregate.failed_homes, aggregate.total_homes),
    )


def _exposure(args) -> _Population:
    from repro.exposure import run_exposure_stream
    from repro.reports import render_exposure

    _reject_duplicates("firewall mode(s)", args.firewall)
    return _Population(
        f"WAN-scanning {args.homes} homes x {len(args.firewall)} firewall mode(s) "
        f"(config={args.config}, seed={args.seed}",
        functools.partial(
            run_exposure_stream,
            args.homes,
            seed=args.seed,
            config_name=args.config,
            firewalls=tuple(args.firewall),
            fidelity=args.fidelity,
        ),
        render_exposure,
    )


def _faults(args) -> _Population | int:
    if args.list_presets:
        from repro.faults.schedule import FAULT_PRESETS

        print("\n".join(sorted(FAULT_PRESETS)))
        return 0
    from repro.faults.population import run_faults_stream
    from repro.reports import render_faults

    _reject_duplicates("config(s)", args.configs)
    _reject_duplicates("fault preset(s)", args.faults)
    return _Population(
        f"injecting {len(args.faults)} fault(s) into {args.homes} homes x "
        f"{len(args.configs)} config(s) (seed={args.seed}",
        functools.partial(
            run_faults_stream,
            args.homes,
            seed=args.seed,
            config_names=tuple(args.configs),
            fault_names=tuple(args.faults),
            fidelity=args.fidelity,
        ),
        render_faults,
    )


def _lifecycle(args) -> _Population | int:
    if args.list_waves:
        from repro.lifecycle.rollout import WAVES

        print("\n".join(sorted(WAVES)))
        return 0
    from repro.lifecycle import LifecycleParams, run_lifecycle_stream
    from repro.reports import render_lifecycle

    params = LifecycleParams(
        epochs=args.epochs,
        wave=args.wave,
        leave_rate=args.leave_rate,
        join_rate=args.join_rate,
        update_rate=args.update_rate,
        fault_name=args.fault,
        exposure=args.exposure,
        rotation=not args.no_rotation,
        fidelity=args.fidelity,
    )
    return _Population(
        f"advancing {args.homes} homes through {args.epochs} epochs "
        f"(wave={args.wave}, fault={args.fault}, seed={args.seed}",
        functools.partial(run_lifecycle_stream, args.homes, seed=args.seed, params=params),
        render_lifecycle,
    )


def _adversary(args) -> _Population:
    from repro.adversary import WormParams, run_adversary_stream
    from repro.fleet import get_scenario
    from repro.reports import render_adversary

    _reject_duplicates("firewall mode(s)", args.firewall)
    scenario = get_scenario(args.scenario)
    params = WormParams(
        strategy=args.strategy,
        scan_rate=args.scan_rate,
        dt=args.dt,
        horizon=args.horizon,
        seeds=args.seeds,
        recovery=args.recover,
        hitlist_background=args.hitlist_background,
    )
    return _Population(
        f"attacking {args.homes} homes x {len(args.firewall)} firewall mode(s) "
        f"(strategy={args.strategy}, scenario={scenario.name}, fault={args.fault}, seed={args.seed}",
        functools.partial(
            run_adversary_stream,
            args.homes,
            seed=args.seed,
            params=params,
            scenario=scenario,
            firewalls=tuple(args.firewall),
            fault_name=args.fault,
            fidelity=args.fidelity,
        ),
        render_adversary,
    )


_POPULATIONS = {
    "fleet": _fleet,
    "exposure": _exposure,
    "faults": _faults,
    "lifecycle": _lifecycle,
    "adversary": _adversary,
}


def _shard_progress(done: int, total: int, shard: int, units: int) -> None:
    print(f"  shard {shard} [{done}/{total}] done ({units} home(s))", file=sys.stderr)


def _exit_code(failed, total: int) -> int:
    """0 clean, 1 when any run failed, listing each as its home id and error line.

    (Middle elements of a ``failed`` tuple name the cell; the report shows them.)
    """
    if not failed:
        return 0
    print(f"error: {len(failed)}/{total} home run(s) failed:", file=sys.stderr)
    for entry in failed:
        print(f"  home {entry[0]}: {entry[-1]}", file=sys.stderr)
    return 1


def _run_population(args, entry: Callable) -> int:
    """Drive one population subcommand: validate, run, report, exit code."""
    from repro.cache import CacheSettings, read_disk_stats

    cache = CacheSettings(directory=args.cache) if args.cache is not None else None
    try:
        population = entry(args)
        if isinstance(population, int):
            return population
        if args.homes == 0:
            print("error: nothing to run — --homes 0 generates an empty population", file=sys.stderr)
            return 2
        print(f"{population.banner}, shards={args.shards}) ...", file=sys.stderr)
        before = read_disk_stats(args.cache) if cache is not None else None
        start = time.time()
        aggregate = population.run(
            shards=args.shards,
            timeout=args.timeout,
            journal_dir=args.journal,
            checkpoint_every=args.checkpoint_every,
            progress=_shard_progress,
            cache=cache,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"done in {time.time() - start:.1f}s", file=sys.stderr)
    if cache is not None:
        _report_cache(args.cache, before)
    print(population.render(aggregate))
    return _exit_code(*population.failures(aggregate))


# ------------------------------------------------------------ study commands


def _run_study(seed: int, with_scan: bool = True, fidelity: str = "packet"):
    from repro.core.analysis import StudyAnalysis
    from repro.testbed.study import run_full_study

    start = time.time()
    print(f"running the full study (seed={seed}, fidelity={fidelity}) ...", file=sys.stderr)
    study = run_full_study(seed=seed, with_port_scan=with_scan, fidelity=fidelity)
    print(f"done in {time.time() - start:.0f}s ({study.total_frames()} frames)", file=sys.stderr)
    return study, StudyAnalysis(study)


def _print_tables(analysis, numbers: list[str]) -> None:
    from repro import reports

    renderers = {
        "2": lambda a: reports.render_table2(),
        "3": reports.render_table3,
        "4": reports.render_table4,
        "5": reports.render_table5,
        "6": reports.render_table6,
        "7": reports.render_table7,
        "8": reports.render_table8,
        "9": reports.render_table9,
        "10": reports.render_table10,
        "12": reports.render_table12,
        "13": reports.render_table13,
    }
    for number in numbers:
        print(renderers[number](analysis), end="\n\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command in _POPULATIONS:
        return _run_population(args, _POPULATIONS[args.command])

    if args.command == "devices":
        from repro.devices import build_inventory

        for profile in build_inventory():
            print(
                f"{profile.name:24s} {profile.category.value:10s} "
                f"{profile.manufacturer:22s} {profile.os or '-':14s} {profile.purchase_year}"
            )
        return 0

    if args.command == "study":
        from repro import reports

        study, analysis = _run_study(args.seed, with_scan=not args.no_scan, fidelity=args.fidelity)
        _print_tables(analysis, TABLE_CHOICES)
        for renderer in (
            reports.render_figure2,
            reports.render_figure3,
            reports.render_figure4,
            reports.render_figure5,
        ):
            print(renderer(analysis), end="\n\n")
        return 0

    if args.command == "tables":
        # No table renderer consumes port-scan results, so skip the scan.
        _, analysis = _run_study(args.seed, with_scan=False, fidelity=args.fidelity)
        _print_tables(analysis, args.numbers)
        return 0

    if args.command == "pcap":
        study, _ = _run_study(args.seed, with_scan=False)
        for path in study.export_pcaps(args.directory):
            print(path)
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
