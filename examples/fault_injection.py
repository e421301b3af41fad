#!/usr/bin/env python3
"""Break the network on purpose and watch the fleet degrade.

Runs a small home population through a grid of fault presets — an upstream
DNS blackout, scheduled uplink flaps, and a lossy LAN — with every cell
paired against a clean run of the *same* home at the *same* seed, then
prints the degradation report: who shrugged it off, who recovered (and how
fast), who limped along on IPv4 fallback, and who bricked. Finishes with a
custom-composed schedule on a single home to show the schedule algebra.

Run:  python examples/fault_injection.py [--homes 4] [--jobs 4]
"""

import argparse
import time

from repro.faults import FaultSchedule, FaultSpec, FaultWindow, run_faults_stream, run_home_faults
from repro.reports import render_faults

FAULTS = ("dns-blackout", "uplink-flap", "flaky-lan")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--homes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    print(f"fault grid: {args.homes} homes x (dual-stack, ipv6-only) x {FAULTS}\n")
    start = time.time()
    aggregate = run_faults_stream(
        args.homes,
        seed=args.seed,
        config_names=("dual-stack", "ipv6-only"),
        fault_names=FAULTS,
        shards=args.jobs,
    )
    print(render_faults(aggregate))
    print(f"\n{aggregate.total_runs} cells in {time.time() - start:.1f}s (jobs={args.jobs})")

    # Schedules compose: a morning of misery — flaky LAN while the upstream
    # resolver is also down — built from windows, not presets.
    misery = FaultSchedule.of(
        "morning-misery",
        [
            FaultWindow("loss", 100.0, 500.0, severity=0.2),
            FaultWindow("dns-outage", 200.0, 400.0),
        ],
    )
    spec = FaultSpec(
        home_id=0,
        sim_seed=args.seed,
        config_name="dual-stack",
        device_names=("Samsung Fridge", "Behmor Brewer", "Smarter IKettle"),
        fault_names=(),
    )
    summary = run_home_faults(spec, extra_schedules=(misery,))
    print("\ncustom schedule on one home:")
    for cell in summary.outcomes_for("morning-misery"):
        ttr = f" (recovered in {cell.time_to_recover:.0f}s)" if cell.time_to_recover is not None else ""
        print(f"  {cell.device:<20} {cell.outcome}{ttr}  +{cell.dns_retries} DNS retries")


if __name__ == "__main__":
    main()
