#!/usr/bin/env python3
"""Time portrait of a diffusive shear scenario: norms, mixing scale, floors.

Runs one scenario, writes the plot-ready CSV (t, l2, hneg1, mix_scale,
per-mode energies) and prints the certified floors next to the worst measured
values.
"""

import argparse
import sys
from pathlib import Path

from mixlab.harness import Scenario, run, write_timeseries_csv

DEFAULT = Path(__file__).resolve().parent.parent / "scenarios" / "corpus" / "sinshear_cosx.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=DEFAULT, help="scenario JSON (default: the shipped sinshear_cosx)")
    parser.add_argument("--csv", default="mixing_portrait.csv")
    parser.add_argument("--kreport", type=int, default=2)
    args = parser.parse_args(argv)

    scenario = Scenario.from_file(args.scenario)
    report = run(scenario)
    write_timeseries_csv(report, args.csv, kreport=args.kreport)

    print(f"scenario {scenario.name}: {report.verdict}")
    for name, check in sorted(report.checks.items()):
        print(f"  {name:14s} min margin {check.min_margin:.6g}  ({check.bound})")
    mix = report.checks.get("mixing_floor")
    if mix is not None:
        print(f"  certified floor c* = {mix.certificate['c_star']:.6g}, slack {mix.extras['slack_factor']:.3f}x")
    print(f"wrote {args.csv}")
    return 0 if report.verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
