#!/usr/bin/env python3
"""Wall time of the diffusive-shear stepper as the vertical cutoff grows.

Two corpus scenarios share a datum (cos x), viscosity, step size and sample
times and differ only in the shear: ``sinshear_cosx`` is steady (sin y) and
``timeshear_cosx`` time-periodic (cos t sin y).  For each shear and each
cutoff L, the datum's terms are laid on the lattice (kmax, L) and
``evolve_shear`` runs REPEATS times.  One JSON line per shear and cutoff
gives the fastest wall time, the mode-steps taken (steps times active
x-modes), the rows the stepper advances (the datum is real, so its k >= 0
active rows: 1 for cos x), the microseconds per mode-step, and the log-log
slope of the wall time in L from the previous cutoff of the same shear (null
on its first line):

    PYTHONPATH=src python scripts/shear_scaling.py --lmax 16 32 64 128

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

from mixlab.harness import Scenario
from mixlab.shear import evolve_shear
from mixlab.spectral import Lattice, field_from_terms

CORPUS = Path(__file__).resolve().parent.parent / "scenarios" / "corpus"
SHEARS = {"steady": CORPUS / "sinshear_cosx.json", "time_periodic": CORPUS / "timeshear_cosx.json"}
REPEATS = 5  # runs per shear and cutoff; the fastest is reported


def time_evolve(scenario, lmax: int) -> tuple[float, int, int]:
    """Fastest of REPEATS ``evolve_shear`` runs of the scenario at cutoff lmax, its mode-steps and its stepped rows."""
    rho0 = field_from_terms(Lattice(scenario.lattice.kmax, lmax), scenario.initial_terms)
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        traj = evolve_shear(rho0, scenario.shear_spec, scenario.nu, scenario.times, dt=scenario.dt)
        best = min(best, perf_counter() - t0)
    coeff = rho0.coeff
    active = np.any(coeff != 0.0, axis=1)
    modes = int(np.count_nonzero(active))
    if np.array_equal(coeff, coeff[::-1, ::-1].conj()):  # a real datum steps its k >= 0 rows only
        active &= rho0.lattice.k_values() >= 0
    return best, (traj.diag_times.size - 1) * modes, int(np.count_nonzero(active))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--lmax", type=int, nargs="+", default=[16, 32, 64, 128])
    args = parser.parse_args(argv)
    if min(args.lmax) < 1:
        parser.error("lmax must be at least 1")
    for kind, path in SHEARS.items():
        scenario = Scenario.from_file(path)
        previous = None
        for lmax in args.lmax:
            seconds, mode_steps, stepped_rows = time_evolve(scenario, lmax)
            slope = None
            if previous is not None and previous[0] != lmax:
                slope = math.log(seconds / previous[1]) / math.log(lmax / previous[0])
            line = {
                "shear": kind,
                "scenario": scenario.name,
                "lmax": lmax,
                "evolve_shear_s": seconds,
                "mode_steps": mode_steps,
                "stepped_rows": stepped_rows,
                "us_per_mode_step": 1e6 * seconds / mode_steps,
                "slope": slope,
            }
            print(json.dumps(line), flush=True)
            previous = (lmax, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
