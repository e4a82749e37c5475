"""The benchmark's workloads: generated inputs, the calls they time, and the outputs they pin.

Why each workload exists:

* ``shear_corpus`` -- the ``mixlab corpus`` path over the 12 corpus scenarios
  plus the inviscid one; almost all time is ``shear.evolve_shear`` and the
  fast-regime code is never entered, so fast-regime work must read "no change".
* ``fast_scenarios`` -- the ``mixlab verify fast`` path over the two shipped
  fast scenarios, cut to certificate cutoff 8 and horizon 0.2; their sample
  times are whole phase periods.
* ``fast_certify_sweep`` -- the certificate chain alone at growing cutoffs, so
  the dense certificate algebra shows a scaling curve; ``evolve_2d`` is bypassed.

Every pass is kept to a few seconds so that one run makes ten or more passes
and the medians over them ride out the stretches in which a shared host runs
slower.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from mixlab import averaging, harness
from mixlab.spectral import Lattice, field_from_terms

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TOLERANCE = 1e-9

CORPUS_FILES = sorted((SCENARIOS / "corpus").glob("*.json")) + [SCENARIOS / "extra" / "inviscid_cosx_siny.json"]
FAST_FILES = [SCENARIOS / "extra" / "fast_shear_mean.json", SCENARIOS / "extra" / "fast_averaging_study.json"]
# The shipped fast scenarios take 17 s a pass (cutoff 12 and horizon 2 for
# fast_shear_mean), too long for more than two passes in a run.  Cutoff 8 and
# three samples at spacing 0.1 (ten whole phase periods at A = 100) keep
# both scenarios PASSing in about 3 s.
FAST_CUTOFF = 8
FAST_TIMES = np.linspace(0.0, 0.2, 3)

# Cutoffs 6/8/10 give n = 168/288/440, about 3.5 s a pass; sylvester_constant
# leads detecting_spectrum and averaged_operator at each of them, which no
# longer holds at cutoff 4.  Cutoff 12 alone takes 7 s and cutoff 16 21 s.
SWEEP_CUTOFFS = (6, 8, 10)


@dataclass
class Item:
    id: str
    call: Callable[[], object]
    pin: Callable[[object], dict]


def pin_report(report: dict) -> dict:
    """Pinned outputs of one ScenarioReport JSON."""
    out = {"verdict": report["verdict"], "min_margin": report["min_margin"]}
    for name, check in report["checks"].items():
        out[f"{name}.verdict"] = check["verdict"]
        out[f"{name}.min_margin"] = check["min_margin"]
        out[f"{name}.final_measured"] = check["samples"][-1][1]
        for key in ("c2", "c_star", "gamma_nu", "C_S", "D_eta", "A0"):
            if key in check["certificate"]:
                out[f"{name}.{key}"] = check["certificate"][key]
        if "rate_used" in check["extras"]:
            out[f"{name}.rate_used"] = check["extras"]["rate_used"]
    return out


def pin_certificate(cert) -> dict:
    c = cert.to_json()
    return {k: c[k] for k in ("gamma_nu", "C_S", "D_eta", "A0", "Q", "K0")}


def _fast_item(scenario) -> Item:
    return Item(scenario.name, lambda: harness.run(scenario), lambda rep: pin_report(rep.to_json()))


def _sweep_item(scenario, cutoff: int) -> Item:
    def call():
        lattice = Lattice(cutoff, cutoff)
        op = averaging.averaged_operator(scenario.flow_spec, scenario.nu, lattice)
        spectrum = averaging.detecting_spectrum(op, field_from_terms(lattice, scenario.initial_terms))
        syl = averaging.sylvester_constant(op, spectrum)
        return averaging.fast_certificate(scenario.flow_spec, scenario.rho0, scenario.nu, scenario.eta, spectrum, syl)

    return Item(f"cutoff{cutoff}", call, pin_certificate)


def all_items(name: str) -> list[Item]:
    """The items of a workload, in file or cutoff order."""
    if name == "fast_scenarios":
        scenarios = [harness.Scenario.from_file(p) for p in FAST_FILES]
        return [_fast_item(replace(s, cutoff=FAST_CUTOFF, times=FAST_TIMES)) for s in scenarios]
    if name == "fast_certify_sweep":
        scenario = harness.Scenario.from_file(FAST_FILES[0])
        return [_sweep_item(scenario, c) for c in SWEEP_CUTOFFS]
    raise ValueError(f"no item list for workload {name!r}")


class ItemWorkload:
    """Items called back to back from the benchmark, in a seeded order."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.items = all_items(name)
        random.Random(seed).shuffle(self.items)

    def run_pass(self, tracer) -> dict:
        """One pass; returns item id -> pinned outputs or the exception raised."""
        raw = {}
        for item in self.items:
            tracer.item = item.id
            try:
                raw[item.id] = tracer.wrap("item", item.call)()
            except Exception as exc:  # an item that raises counts as failed
                raw[item.id] = exc
        return {
            item.id: raw[item.id] if isinstance(raw[item.id], Exception) else item.pin(raw[item.id])
            for item in self.items
        }

    def close(self) -> None:
        pass


class CorpusWorkload:
    """``harness.corpus_run`` over a directory of the scenario files in a seeded order.

    corpus_run visits files sorted by name, so the seeded order is written
    into the file names; the scenarios themselves are copied unchanged.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.workdir = workdir
        self.in_dir = workdir / "in"
        self.out_dir = workdir / "out"
        self.in_dir.mkdir(parents=True, exist_ok=True)
        files = list(CORPUS_FILES)
        random.Random(seed).shuffle(files)
        self.names = {}
        for i, path in enumerate(files):
            target = f"{i:02d}_{path.name}"
            shutil.copyfile(path, self.in_dir / target)
            self.names[target] = path.stem

    def run_pass(self, tracer) -> dict:
        run = harness.run

        def enter(args):
            tracer.item = args[0].name

        harness.run = tracer.wrap("item", run, on_enter=enter)
        tracer.item = None
        try:
            summary = harness.corpus_run(self.in_dir, self.out_dir)
        finally:
            harness.run = run
        outputs = {}
        for row in summary.rows:
            item = self.names[row["file"]]
            if row["verdict"] == "ERROR":
                outputs[item] = RuntimeError(row["error"])
                continue
            with open(self.out_dir / f"{row['name']}.json") as fh:
                outputs[item] = pin_report(json.load(fh))
        # Every pass writes into a fresh directory, as a first `mixlab corpus`
        # run does: rewriting the last pass's reports in place makes ext4
        # start writeback when each is closed, which puts the latency of a
        # shared disk into the pass.
        shutil.rmtree(self.out_dir)
        return outputs

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_workload(name: str, seed: int, workdir: Path):
    cls = CorpusWorkload if name == "shear_corpus" else ItemWorkload
    return cls(name, seed, workdir)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def relative_deviation(got, ref) -> float:
    if got == ref:
        return 0.0
    if isinstance(got, str) or isinstance(ref, str) or ref == 0 or not np.isfinite(got):
        return float("inf")
    return abs(got - ref) / abs(ref)


def check_outputs(outputs: dict, reference: dict) -> tuple[int, float]:
    """Count failed items of one pass and the largest relative deviation seen.

    An item fails if it raised, has no reference, returned a verdict other
    than PASS, or has a pinned output outside TOLERANCE of the reference.
    """
    failed = 0
    worst = 0.0
    for item_id, pinned in outputs.items():
        ref = reference.get(item_id)
        if isinstance(pinned, Exception) or ref is None or set(pinned) != set(ref):
            failed += 1
            continue
        verdicts_ok = all(v == "PASS" for k, v in pinned.items() if k.endswith("verdict"))
        dev = max((relative_deviation(pinned[k], ref[k]) for k in ref), default=0.0)
        worst = max(worst, dev)
        if not verdicts_ok or dev > TOLERANCE:
            failed += 1
    return failed, worst
