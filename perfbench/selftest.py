#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

One pass of ``shear_corpus`` through the benchmark's own run path must report
fail_frac 0 against the shipped reference; with one pinned value of one item
perturbed by 1e-8 relative (beyond the 1e-9 tolerance) it must report that
item failed, and with a perturbation of 1e-11 (within tolerance) none.
Exits nonzero when any of these does not hold.
"""

from __future__ import annotations

import copy
import sys

import run

WORKLOAD = "shear_corpus"


def fail_frac(reference: dict) -> float:
    result = run.run_workload(WORKLOAD, seed=0, seconds=0.0, trace=False, reference=reference)
    return result["failed"] / result["attempted"]


def perturbed(reference: dict, item: str, key: str, factor: float) -> dict:
    out = copy.deepcopy(reference)
    out[item][key] *= factor
    return out


def main() -> int:
    run.pin_threads()
    run.use_source_tree()
    import workloads

    reference = workloads.load_reference()[WORKLOAD]
    item = sorted(reference)[0]
    key = next(k for k, v in sorted(reference[item].items()) if isinstance(v, float))
    cases = [
        ("clean reference", reference, lambda f: f == 0.0),
        (f"{item}.{key} x (1 + 1e-8)", perturbed(reference, item, key, 1.0 + 1e-8), lambda f: f > 0.0),
        (f"{item}.{key} x (1 + 1e-11)", perturbed(reference, item, key, 1.0 + 1e-11), lambda f: f == 0.0),
    ]
    ok = True
    for label, ref, expect in cases:
        frac = fail_frac(ref)
        good = expect(frac)
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {label}: fail_frac = {frac:.4g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
