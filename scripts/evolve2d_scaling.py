#!/usr/bin/env python3
"""Wall time of the fast-regime stepper ``evolve_2d`` as the lattice grows.

The flow, datum, viscosity and frequency A are those of the shipped
``fast_shear_mean`` scenario; the samples are t = 0, 0.1 and 0.2, as in the
benchmark's ``fast_scenarios`` workload.  For each lattice size L, the
datum's terms are laid on the square lattice (L, L), with D = (2 L + 1)^2
coefficients, and ``evolve_2d`` runs REPEATS times.  The step count grows
with L too, through the CFL cap.  One JSON line per lattice gives D, the
steps taken, the fastest wall time, the microseconds per step, and the
log-log slope of the microseconds per step in D from the previous lattice
(null on the first line):

    PYTHONPATH=src python scripts/evolve2d_scaling.py --lattice 4 6 8 12 16

Timings depend on the BLAS thread count; set ``OPENBLAS_NUM_THREADS=1`` to
match the benchmark's single-thread runs.
"""

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from mixlab.averaging import evolve_2d
from mixlab.harness import Scenario
from mixlab.spectral import Lattice, field_from_terms

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "extra" / "fast_shear_mean.json"
TIMES = np.array([0.0, 0.1, 0.2])
REPEATS = 5  # runs per lattice; the fastest is reported


def time_evolve(scenario, size: int) -> tuple[float, int]:
    """Fastest of REPEATS ``evolve_2d`` runs of the scenario on the lattice (size, size), and its steps."""
    rho0 = field_from_terms(Lattice(size, size), scenario.initial_terms)
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        traj = evolve_2d(rho0, scenario.flow_spec, scenario.A, scenario.nu, TIMES)
        best = min(best, perf_counter() - t0)
    return best, traj.diag_times.size - 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--lattice", type=int, nargs="+", default=[4, 6, 8, 12, 16])
    args = parser.parse_args(argv)
    if min(args.lattice) < 1:
        parser.error("lattice must be at least 1")
    scenario = Scenario.from_file(SCENARIO)
    previous = None
    for size in args.lattice:
        seconds, steps = time_evolve(scenario, size)
        dim = (2 * size + 1) ** 2
        us_per_step = 1e6 * seconds / steps
        slope = None
        if previous is not None and previous[0] != dim:
            slope = math.log(us_per_step / previous[1]) / math.log(dim / previous[0])
        line = {
            "scenario": scenario.name,
            "lattice": size,
            "D": dim,
            "steps": steps,
            "evolve_2d_s": seconds,
            "us_per_step": us_per_step,
            "slope": slope,
        }
        print(json.dumps(line), flush=True)
        previous = (dim, us_per_step)
    return 0


if __name__ == "__main__":
    sys.exit(main())
