#!/usr/bin/env python3
"""Wall time of each fast-certificate stage as the cutoff grows.

For each cutoff c, the viscosity and datum (cos y) of the ``fast_shear_mean``
scenario are certified on the lattice (c, c) under one of two flows:
averaged operator, detecting spectrum, Sylvester constant, then the
certificate itself (which takes the damping constant).  ``--mean shear``
(the default) takes the scenario's own flow, whose mean is the shear
(sin y, 0): one mode class per x-wavenumber.  ``--mean coupled`` takes the
steady flow with streamfunction cos y + 0.7 cos x, whose mean couples every
mode into one class, so the dense path of a single class is timed by the
same command.  One JSON line per cutoff gives the operator dimension ``n``,
the mode-class sizes as {size: count}, ``real_classes`` (the classes whose
block is a real matrix, run in real arithmetic), ``resolvents`` (the class
blocks the Sylvester constant inverts, summed over its contour nodes), the
fastest of REPEATS wall times of each stage, and each stage's log-log slope
in ``n`` from the previous cutoff (null on the first line), so the scaling
exponent is visible:

    PYTHONPATH=src python scripts/certify_scaling.py --cutoffs 6 8 10 12 16 24
    PYTHONPATH=src python scripts/certify_scaling.py --mean coupled --cutoffs 4 6 8

Timings depend on the BLAS thread count; set ``OPENBLAS_NUM_THREADS=1`` to
match the benchmark's single-thread runs.
"""

import argparse
import dataclasses
import json
import math
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from mixlab import averaging
from mixlab.flows import FlowSpec, FlowTerm
from mixlab.harness import Scenario
from mixlab.spectral import Lattice, field_from_terms

STAGES = ("averaged_operator", "detecting_spectrum", "sylvester_constant", "fast_certificate")
REPEATS = 3  # passes per cutoff; the fastest time of each stage is reported
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "extra" / "fast_shear_mean.json"
COUPLED = FlowSpec((FlowTerm(1.0, 0, 1, "cos"), FlowTerm(0.7, 1, 0, "cos")))


def time_chain(scenario, cutoff: int) -> tuple[averaging.AveragedOperator, averaging.SylvesterEstimate, dict]:
    """One pass of the certificate chain at this cutoff: the operator, its Sylvester estimate, each stage's time."""
    lattice = Lattice(cutoff, cutoff)
    t0 = perf_counter()
    op = averaging.averaged_operator(scenario.flow_spec, scenario.nu, lattice)
    t1 = perf_counter()
    spectrum = averaging.detecting_spectrum(op, field_from_terms(lattice, scenario.initial_terms))
    t2 = perf_counter()
    syl = averaging.sylvester_constant(op, spectrum)
    t3 = perf_counter()
    averaging.fast_certificate(scenario.flow_spec, scenario.rho0, scenario.nu, scenario.eta, spectrum, syl)
    t4 = perf_counter()
    times = dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)))
    return op, syl, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--cutoffs", type=int, nargs="+", default=[6, 8, 10, 12, 16, 24])
    parser.add_argument("--mean", choices=("shear", "coupled"), default="shear")
    args = parser.parse_args(argv)
    if min(args.cutoffs) < 1:
        parser.error("cutoffs must be at least 1")
    scenario = Scenario.from_file(SCENARIO)
    if args.mean == "coupled":
        scenario = dataclasses.replace(scenario, flow_spec=COUPLED)
    previous = None
    for cutoff in args.cutoffs:
        passes = [time_chain(scenario, cutoff) for _ in range(REPEATS)]
        op, syl, _ = passes[0]
        best = {stage: min(times[stage] for _, _, times in passes) for stage in STAGES}
        best["total"] = sum(best[stage] for stage in STAGES)
        slope = None
        if previous is not None and previous[0] != op.dim:
            log_n = math.log(op.dim / previous[0])
            slope = {stage: math.log(best[stage] / previous[1][stage]) / log_n for stage in best}
        sizes = Counter(idx.size for idx in op.classes)
        line = {
            "cutoff": cutoff,
            "n": op.dim,
            "class_sizes": {str(s): sizes[s] for s in sorted(sizes)},
            "real_classes": sum(not op.matrix[np.ix_(idx, idx)].imag.any() for idx in op.classes),
            "resolvents": syl.resolvents,
            "stages_s": best,
            "slope": slope,
        }
        print(json.dumps(line), flush=True)
        previous = (op.dim, best)
    return 0


if __name__ == "__main__":
    sys.exit(main())
