#!/usr/bin/env python3
"""A 50-home IPv6-only rollout sweep.

Simulates the same 50-home population under increasing rollout pressure —
the ISP flips 0%, 25%, 50%, 75% and 100% of homes from dual-stack to
IPv6-only — and reports, per flip fraction, how many homes end up with at
least one bricked device and how many devices brick on average. The home
portfolios are *paired* across flip fractions (the generator's portfolio
stream is independent of the scenario), so each row is a counterfactual on
the identical population. This is the population-scale version of the
paper's headline result (only 8.6% of devices keep working in IPv6-only
networks).

Run:  python examples/fleet_rollout.py [--homes 50] [--jobs 4]
"""

import argparse
import sys
import time

from repro.fleet import ipv6_only_flip, run_fleet_stream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--homes", type=int, default=50)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    print(f"sweeping IPv6-only flip fractions over {args.homes} homes (jobs={args.jobs})\n")
    header = f"{'flip %':>6}  {'homes bricked':>14}  {'E[bricked/home]':>16}  {'EUI-64 dev %':>12}"
    print(header)
    print("-" * len(header))

    for percent in (0, 25, 50, 75, 100):
        start = time.time()
        aggregate = run_fleet_stream(
            args.homes, seed=args.seed, scenario=ipv6_only_flip(percent / 100.0), shards=args.jobs
        )
        elapsed = time.time() - start
        print(
            f"{percent:>5}%  "
            f"{100.0 * aggregate.fraction_homes_bricked:>13.1f}%  "
            f"{aggregate.expected_bricked_per_home:>16.2f}  "
            f"{100.0 * aggregate.eui64_device_prevalence:>11.1f}%"
            f"   ({elapsed:.1f}s)",
            flush=True,
        )
        if aggregate.failed_homes:
            print(f"        {len(aggregate.failed_homes)} failed homes", file=sys.stderr)

    print(
        "\nReading: the fraction of damaged homes tracks the flip fraction "
        "almost linearly, because nearly every home owns at least one device "
        "that cannot survive without IPv4."
    )


if __name__ == "__main__":
    main()
