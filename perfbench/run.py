#!/usr/bin/env python3
"""The mixlab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload shear_corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a mixlab source tree; the package is imported from
``src/``.  Whole passes over the workload's items run back to back until the
next pass would end after ``--seconds`` (at least one pass; a traced run
makes at least one untraced and one traced pass).  Every item's pinned
outputs are checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the spans
of the traced ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric with its unit and sample count and the machine record.  A full
record (samples, machine, and the spans of a traced run) is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("shear_corpus", "fast_scenarios", "fast_certify_sweep")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core box the certificate chain is faster (cutoffs 8,
# 10) or the same (cutoff 12) with one thread than with two.
BLAS_THREADS = 1

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_s_max": "s", "peak_rss_mb": "MB"}


def pin_threads() -> int:
    """Pin BLAS threads (at most the usable cores); must run before numpy is imported."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    os.environ.pop("MIXLAB_THREADS", None)
    return n


def use_source_tree() -> None:
    if not (ROOT / "src" / "mixlab" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no mixlab source tree (src/mixlab, scenarios)")
    sys.path.insert(0, str(ROOT / "src"))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine_record(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": git_commit(),
    }


def setup_probe(name: str, seed: int) -> None:
    """Child process: time the import plus input loading once and print it."""
    use_source_tree()
    t0 = perf_counter()
    import workloads

    workload = workloads.make_workload(name, seed, OUT_DIR / f"setup-{os.getpid()}")
    elapsed = perf_counter() - t0
    workload.close()
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict | None = None) -> dict:
    """Run passes of one workload in this process; returns metrics and their samples."""
    import tracer as tr
    import workloads

    if reference is None:
        reference = workloads.load_reference()[name]
    tracer = tr.Tracer()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    if trace:
        with tracer.patched():
            workload = workloads.make_workload(name, seed, workdir)
    else:
        workload = workloads.make_workload(name, seed, workdir)

    walls, traced_flags, item_max = [], [], []
    attempted = failed = 0
    worst = 0.0
    start = perf_counter()
    try:
        while True:
            tracer.pass_no = len(walls) + 1
            traced = trace and tracer.pass_no % 2 == 0
            t0 = perf_counter()
            if traced:
                with tracer.patched():
                    outputs = workload.run_pass(tracer)
            else:
                outputs = workload.run_pass(tracer)
            walls.append(perf_counter() - t0)
            traced_flags.append(traced)
            items = [s for s in tracer.spans if s[tr.NAME] == "item" and s[tr.PASS] == tracer.pass_no]
            item_max.append(max((s[tr.END] - s[tr.START] for s in items), default=0.0))
            n_failed, dev = workloads.check_outputs(outputs, reference)
            attempted += len(outputs)
            failed += n_failed
            worst = max(worst, dev)
            # stop once the next pass would end after `seconds`
            both_kinds = not trace or len(walls) >= 2
            if both_kinds and perf_counter() - start + statistics.median(walls) > seconds:
                break
    finally:
        workload.close()

    result = {
        "attempted": attempted,
        "failed": failed,
        "samples": {"wall_s": walls, "item_s_max": item_max},
        "traced": traced_flags,
        "max_rel_dev": min(worst, 1e300),
    }
    if trace:
        plain = [w for w, t in zip(walls, traced_flags) if not t]
        traced_walls = [w for w, t in zip(walls, traced_flags) if t]
        traced_passes = [i + 1 for i, t in enumerate(traced_flags) if t]
        layers = tr.layer_metrics(tracer.spans, traced_passes)
        layers["check.max_rel_dev"] = result["max_rel_dev"]
        layers["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain) - 1.0
        result["layers"] = layers
        result["items"] = tr.item_breakdown(tracer.spans, traced_passes)
        result["spans"] = tracer.spans
    return result


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith((".exponent", ".max_rel_dev", ".overhead_frac")):
        return "1"
    return "count"


def measure(args) -> int:
    threads = pin_threads()
    use_source_tree()
    machine = machine_record(threads)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    lines = []
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
        n_traced = sum(result["traced"])
        for k, m in metrics.items():
            lines.append(f"{args.workload} {k} = {m['value']:.6g} {m['unit']} (traced passes n={n_traced})")
        for item, names in sorted(result["items"].items()):
            stages = sorted(names.items(), key=lambda kv: -kv[1])
            lines.append(f"{args.workload} item {item}: " + ", ".join(f"{k} {v:.4g} s" for k, v in stages))
    else:
        samples = {"setup_s": setup, **result["samples"]}
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples["peak_rss_mb"] = [values["peak_rss_mb"]]
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
        for k, m in metrics.items():
            lines.append(f"{args.workload} {k} = {m['value']:.6g} {m['unit']} (median, n={len(samples[k])})")
        result["samples"] = samples
    fail_frac = result["failed"] / result["attempted"]
    lines.append(f"{args.workload} fail_frac = {fail_frac:.6g} (failed/attempted, n={result['attempted']} items)")

    OUT_DIR.mkdir(exist_ok=True)
    spans = result.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "metrics": metrics, "fail_frac": fail_frac, **result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        keys = ("name", "start", "end", "parent", "item", "pass", "count")
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps([dict(zip(keys, s)) for s in spans]))

    print("\n".join(lines))
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def measure_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        use_source_tree()
        return measure_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
