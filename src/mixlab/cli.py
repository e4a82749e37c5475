"""Command-line interface: simulate, certify, verify, sharpness, spectrum, corpus."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certificates, harness, inviscid, shear
from .harness import Scenario
from .spectral import l2_norm


def _load_scenario(args) -> Scenario:
    with open(args.scenario) as fh:
        raw = json.load(fh)
    if getattr(args, "nu", None) is not None:
        raw["nu"] = args.nu
    if getattr(args, "eta", None) is not None:
        raw["eta"] = args.eta
    if getattr(args, "cutoff", None) is not None:
        raw["cutoff"] = args.cutoff
    if getattr(args, "dt", None) is not None:
        raw["dt"] = args.dt
    return Scenario.from_json(raw)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _lacks_flow(scenario: Scenario, command: str) -> bool:
    """True, after saying so on stderr, when a fast-regime command gets a scenario without a 2D flow."""
    if scenario.flow_spec is not None:
        return False
    print(f"{command} requires a fast_oscillation scenario (a 2D flow)", file=sys.stderr)
    return True


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    report = harness.run(scenario)
    if args.csv:
        harness.write_timeseries_csv(report, args.csv, kreport=args.kreport)
    _emit(report.to_json(), args.out)
    return 0 if report.verdict == "PASS" else 1


def _cmd_certify(args) -> int:
    scenario = _load_scenario(args)
    kind = args.kind
    if kind == "inviscid":
        cert = inviscid.inviscid_certificate(scenario.rho0, scenario.shear_spec)
        _emit(cert.to_json(), args.out)
        return 0
    if kind in ("c2", "mix"):
        M = scenario.shear_spec.M
        c2cert = certificates.c2_certificate(scenario.rho0, M, scenario.nu)
        if args.csv:
            nus = [scenario.nu, scenario.nu / 2.0, scenario.nu / 4.0]
            rows = certificates.nu_scaling_report(scenario.rho0, M, nus)
            with open(args.csv, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=["nu", "c2", "c2_times_nu", "c2_over_nu", "branch"])
                writer.writeheader()
                writer.writerows([r.to_json() for r in rows])
        if kind == "c2":
            _emit(c2cert.to_json(), args.out)
        else:
            mixcert = certificates.mixing_certificate(scenario.rho0, M, scenario.nu, c2cert.c2)
            _emit(mixcert.to_json(), args.out)
        return 0
    # fast
    if _lacks_flow(scenario, "certify fast"):
        return 2
    _emit(harness._certify_fast(scenario).to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    scenario = _load_scenario(args)
    report = harness.run(scenario)
    wanted = {
        "inviscid": ["inviscid"],
        "c2": ["c2_floor", "heat_ceiling"],
        "mix": ["mixing_floor"],
        "fast": ["fast_floor"],
    }[args.kind]
    checks = {k: v for k, v in report.checks.items() if k in wanted}
    if not checks:
        print(f"scenario regime {report.regime} has no {args.kind} check", file=sys.stderr)
        return 2
    if args.csv:
        if args.kind == "inviscid":
            rep = checks["inviscid"]
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "l2", "hneg1", "envelope"])
                for s, t in zip(rep.samples, scenario.times):
                    state = inviscid.evolve_inviscid(scenario.rho0, scenario.shear_spec, float(t))
                    writer.writerow([s.t, l2_norm(state), s.measured, s.envelope])
        else:
            harness.write_timeseries_csv(report, args.csv, kreport=args.kreport)
    payload = {k: v.to_json() for k, v in checks.items()}
    _emit(payload, args.out)
    return 0 if all(v.passed for v in checks.values()) else 1


def _cmd_sharpness(args) -> int:
    family = certificates.sharpness_family(args.nu, args.p)
    times = np.linspace(0.0, args.t_max, args.n_times)
    c2cert = certificates.c2_certificate(family.rho0, 0.0, args.nu)
    mixcert = certificates.mixing_certificate(family.rho0, 0.0, args.nu, c2cert.c2)
    traj = shear.evolve_shear(family.rho0, family.shear, args.nu, times)
    mix_rep = certificates.check_mixing_bound(traj, mixcert, scenario="sharpness")
    exp_rep = certificates.check_exponential_bound(traj, c2cert, scenario="sharpness")
    l2s = traj.l2_series()
    fitted = float(-(math.log(l2s[-1]) - math.log(l2s[0])) / (times[-1] - times[0]))
    payload = {
        "family": family.to_json(),
        "certificate_c_star": mixcert.c_star,
        "measured_over_certified": mix_rep.extras["slack_factor"],
        "fitted_decay_rate": fitted,
        "c2": c2cert.c2,
        "checks": {"mixing_floor": mix_rep.to_json(), "c2_floor": exp_rep.to_json()},
    }
    _emit(payload, args.out)
    ok = mix_rep.passed and exp_rep.passed
    return 0 if ok else 1


def _cmd_spectrum(args) -> int:
    scenario = _load_scenario(args)
    if _lacks_flow(scenario, "spectrum"):
        return 2
    _, spectrum = harness._fast_spectrum(scenario)
    payload = {
        "cutoff": scenario.cutoff,
        "eigenvalues": [[z.real, z.imag] for z in spectrum.eigenvalues],
        "detecting": spectrum.to_json(),
    }
    _emit(payload, args.out)
    return 0


def _cmd_corpus(args) -> int:
    summary = harness.corpus_run(args.directory, args.out)
    for row in summary.rows:
        label = row["name"] or row["file"]
        extra = f"  ({row['error']})" if row["error"] else ""
        print(f"{row['verdict']:5s}  {label}{extra}")
    print(f"{summary.n_pass} pass, {summary.n_fail} fail, {summary.n_error} error")
    return summary.exit_code


def _add_common(p: argparse.ArgumentParser, scenario: bool = True) -> None:
    if scenario:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="write JSON output to this path (default stdout)")
    p.add_argument("--csv", help="write CSV output to this path")
    p.add_argument("--nu", type=float, help="override scenario nu")
    p.add_argument("--eta", type=float, help="override tuning parameter eta")
    p.add_argument("--cutoff", type=int, help="override spectrum truncation cutoff")
    p.add_argument("--dt", type=float, help="override solver step size")
    p.add_argument("--kreport", type=int, default=2, help="per-mode energy columns |k| <= kreport")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mixlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and dump its report/time series")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="compute a certificate without simulating")
    p.add_argument("kind", choices=["inviscid", "c2", "mix", "fast"])
    _add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="certify, simulate, and check one bound")
    p.add_argument("kind", choices=["inviscid", "c2", "mix", "fast"])
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sharpness", help="run the heat-eigenfunction sharpness family")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--n-times", type=int, default=41)
    p.add_argument("--out", help="write JSON output to this path (default stdout)")
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("spectrum", help="averaged-operator eigenvalues and detecting cluster")
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("corpus", help="run every scenario in a directory")
    p.add_argument("directory")
    p.add_argument("--out", help="report directory (default <directory>/reports)")
    p.set_defaults(func=_cmd_corpus)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
