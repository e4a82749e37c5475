"""Command-line interface: simulate, certify, verify, sharpness, spectrum, corpus."""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from . import certificates, harness
from .flows import flow_to_json
from .harness import Scenario, SchemaError
from .spectral import field_to_json, l2_norm


def _load_scenario(args) -> Scenario:
    raw = harness._read_json(args.scenario)
    for key in ("nu", "eta", "cutoff", "dt"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    return Scenario.from_json(raw)


def _emit(payload: dict, out: str | None) -> None:
    text = harness.json_text(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


# certificate kind -> (the regime whose scenarios carry it, its report checks,
# the output options of its certify and of its verify sub-command)
_KINDS = {
    "inviscid": ("inviscid", ["inviscid"], {"certify": (), "verify": ("csv",)}),
    "c2": ("diffusive_shear", ["c2_floor", "heat_ceiling"], {"certify": ("csv",), "verify": ("csv", "kreport")}),
    "mix": ("diffusive_shear", ["mixing_floor"], {"certify": ("csv",), "verify": ("csv", "kreport")}),
    "fast": ("fast_oscillation", ["fast_floor"], {"certify": (), "verify": ("csv", "kreport")}),
}
_NEEDS = {
    "inviscid": "a shear and no nu",
    "diffusive_shear": "a shear and nu",
    "fast_oscillation": "a 2D flow",
}


def _rejects(scenario: Scenario, command: str, regime: str) -> bool:
    """True, after saying so on stderr, when a command for one regime gets a scenario of another."""
    if scenario.regime == regime:
        return False
    print(f"{command} requires a {regime} scenario ({_NEEDS[regime]})", file=sys.stderr)
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
    if _rejects(scenario, f"certify {args.kind}", _KINDS[args.kind][0]):
        return 2
    cert = harness._certify(scenario)[args.kind]
    if getattr(args, "csv", None):  # only c2 and mix take --csv: the nu-scaling table
        nus = [scenario.nu, scenario.nu / 2.0, scenario.nu / 4.0]
        try:
            rows = certificates.nu_scaling_report(scenario.rho0, scenario.shear_spec.M, nus)
        except certificates.CertificateError as exc:  # a valid scenario nu above 1 has no table: bad input
            raise SchemaError(f"--csv nu-scaling table: {exc}") from exc
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["nu", "c2", "c2_times_nu", "c2_over_nu", "branch"])
            writer.writeheader()
            writer.writerows([r.to_json() for r in rows])
    _emit(cert.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    scenario = _load_scenario(args)
    regime, wanted, _ = _KINDS[args.kind]
    if _rejects(scenario, f"verify {args.kind}", regime):
        return 2
    report = harness.run(scenario)
    checks = {k: v for k, v in report.checks.items() if k in wanted}
    if args.csv:
        if args.kind == "inviscid":
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "l2", "hneg1", "envelope"])
                l2s = l2_norm(report.trajectory).tolist()
                writer.writerows([s.t, l2, s.measured, s.envelope] for s, l2 in zip(checks["inviscid"].samples, l2s))
        else:
            harness.write_timeseries_csv(report, args.csv, kreport=args.kreport)
    payload = {k: v.to_json() for k, v in checks.items()}
    _emit(payload, args.out)
    return 0 if all(v.passed for v in checks.values()) else 1


def _cmd_sharpness(args) -> int:
    try:
        family = certificates.sharpness_family(args.nu, args.p)
    except certificates.CertificateError as exc:  # --nu or --p outside the family's range is bad input
        raise SchemaError(str(exc)) from exc
    lattice = family.rho0.lattice
    scenario = Scenario.from_json(
        {
            "name": "sharpness",
            "regime": "diffusive_shear",
            "lattice": {"kmax": lattice.kmax, "lmax": lattice.lmax},
            "initial_data": field_to_json(family.rho0),
            "shear": flow_to_json(family.shear),
            "nu": args.nu,
            "times": {"t_max": args.t_max, "n": args.n_times},
        }
    )
    report = harness.run(scenario)
    mix_rep, exp_rep = report.checks["mixing_floor"], report.checks["c2_floor"]
    times = scenario.times
    l2s = l2_norm(report.trajectory)
    fitted = None  # a norm that underflowed to zero has no logarithm
    if l2s[0] > 0 and l2s[-1] > 0:
        fitted = float(-(math.log(l2s[-1]) - math.log(l2s[0])) / (times[-1] - times[0]))
    payload = {
        "family": family.to_json(),
        "certificate_c_star": mix_rep.certificate["c_star"],
        "measured_over_certified": mix_rep.extras["slack_factor"],
        "fitted_decay_rate": fitted,
        "c2": exp_rep.certificate["c2"],
        "checks": {"mixing_floor": mix_rep.to_json(), "c2_floor": exp_rep.to_json()},
    }
    _emit(payload, args.out)
    ok = mix_rep.passed and exp_rep.passed
    return 0 if ok else 1


def _cmd_spectrum(args) -> int:
    scenario = _load_scenario(args)
    if _rejects(scenario, "spectrum", "fast_oscillation"):
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


def _int_at_least(least: int):
    """argparse type for an integer option of at least ``least``."""

    def parse(text: str) -> int:
        if (n := int(text)) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


# Every option a scenario command can take; each command registers only those it reads.
_OPTIONS = {
    "scenario": dict(required=True, help="scenario JSON file"),
    "out": dict(help="write JSON output to this path (default stdout)"),
    "csv": dict(help="write CSV output to this path"),
    "nu": dict(type=float, help="override scenario nu"),
    "eta": dict(type=float, help="override tuning parameter eta"),
    "cutoff": dict(type=int, help="override spectrum truncation cutoff"),
    "dt": dict(type=float, help="override solver step size"),
    "kreport": dict(type=_int_at_least(0), default=2, help="per-mode energy columns |k| <= kreport"),
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_OPTIONS[name])


def _parser() -> argparse.ArgumentParser:
    """The mixlab argument parser; certify and verify take one sub-parser per certificate kind."""
    parser = argparse.ArgumentParser(prog="mixlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and dump its report/time series")
    _add_options(p, *_OPTIONS)
    p.set_defaults(func=_cmd_simulate)

    for command, func, overrides, help_text in (
        ("certify", _cmd_certify, ("nu", "eta", "cutoff"), "compute a certificate without simulating"),
        ("verify", _cmd_verify, ("nu", "eta", "cutoff", "dt"), "certify, simulate, and check one bound"),
    ):
        kinds = sub.add_parser(command, help=help_text).add_subparsers(dest="kind", required=True)
        for kind, (regime, _, outputs) in _KINDS.items():
            p = kinds.add_parser(kind, help=f"the {kind} bound ({regime} scenarios)")
            _add_options(p, "scenario", "out", *overrides, *outputs[command])
            p.set_defaults(func=func)

    p = sub.add_parser("sharpness", help="run the heat-eigenfunction sharpness family")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--n-times", type=_int_at_least(2), default=41)  # the fitted decay rate needs two times
    _add_options(p, "out")
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("spectrum", help="averaged-operator eigenvalues and detecting cluster")
    _add_options(p, "scenario", "out", "nu", "cutoff")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("corpus", help="run every scenario in a directory")
    p.add_argument("directory")
    p.add_argument("--out", help="report directory (default <directory>/reports)")
    p.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:  # bad input, not a failed bound: exit 2 like a regime mismatch
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
