#!/usr/bin/env python3
"""Convergence of a fast-oscillating run to its phase-averaged limit.

Evolves the same datum under a zero-mean oscillating flow for a range of
frequencies A and measures the distance to the exact heat solution at the
final time.  The flow's phase period is 1, so integer A values complete whole
cycles by T = 1 and the measured deviation isolates the O(1/A) corrector.
"""

import argparse
import csv
import sys

import numpy as np

from mixlab.averaging import evolve_2d
from mixlab.flows import FlowSpec, FlowTerm
from mixlab.spectral import HarmonicTerm, Lattice, field_from_terms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nu", type=float, default=0.1)
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument("--frequencies", type=float, nargs="+", default=[50.0, 100.0, 200.0, 400.0])
    parser.add_argument("--cutoff", type=int, default=6)
    parser.add_argument("--cfl", type=float, default=0.05, help="CFL number against the fast phase")
    parser.add_argument("--csv", help="write (A, error) rows to this CSV path")
    args = parser.parse_args(argv)

    flow = FlowSpec(
        (FlowTerm(1.0, 1, 0, "cos", "cos"), FlowTerm(1.0, 0, 1, "cos", "sin")), period=1.0
    )
    lat = Lattice(args.cutoff, args.cutoff)
    rho0 = field_from_terms(lat, [HarmonicTerm(1.0, 1, 0)])
    heat = rho0.coeff * np.exp(-args.nu * lat.weight_grid() * args.t_final)

    rows = []
    for a in args.frequencies:
        dt = args.cfl / (a * flow.omega + flow.lip * lat.kmax)
        traj = evolve_2d(rho0, flow, a, args.nu, np.array([args.t_final]), dt=dt)
        err = float(np.linalg.norm(traj.coeff[0] - heat))
        rows.append({"A": a, "error": err})
        print(f"A={a:8.1f}  ||rho_A - rho_heat|| = {err:.6e}")

    if len(rows) >= 2:
        slope = float(
            np.polyfit(np.log([r["A"] for r in rows]), np.log([r["error"] for r in rows]), 1)[0]
        )
        print(f"log-log slope: {slope:.4f}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["A", "error"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
