"""Scenario ingestion, run orchestration, report persistence.

A scenario JSON names a regime (inviscid, diffusive_shear, fast_oscillation),
an initial datum, a shear or flow, and the sampling times; ``run`` dispatches
to the regime's certify + evolve + check pipeline and returns one report per
certified inequality.  ``corpus_run`` executes a directory of scenarios,
writes a summary CSV plus per-scenario JSON, and fails (nonzero exit) exactly
when some scenario fails.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import averaging, certificates, inviscid, shear
from .flows import FlowSpec, FlowSpecError, ShearSpec, _spec_terms, flow_from_json
from .reports import BoundReport
from .spectral import (
    FieldError,
    HarmonicTerm,
    Lattice,
    SpectralField2D,
    field_from_json,
    field_from_terms,
    hneg1_norm,
    json_number,
    known_keys,
    l2_norm,
)

__all__ = [
    "SchemaError",
    "Scenario",
    "ScenarioReport",
    "run",
    "corpus_run",
    "json_text",
    "write_timeseries_csv",
]

_REGIMES = ("inviscid", "diffusive_shear", "fast_oscillation")


class SchemaError(ValueError):
    """Scenario JSON violates the schema; the message carries the field path."""


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"missing field: {path}{key}")
    return data[key]


def _object(value, path: str) -> dict:
    """``value`` when it is a JSON object; anything else is a SchemaError naming ``path``."""
    if not isinstance(value, dict):
        raise SchemaError(f"invalid field: {path} must be an object, got {value!r}")
    return value


def _number(value, where: str, rule: str, ok, integer: bool = False) -> float | int:
    """``value`` read by ``json_number``; a SchemaError stating ``rule`` when ``ok`` rejects it."""
    number = json_number(value, where, integer)
    if not ok(number):
        raise SchemaError(f"invalid field: {where} must be {rule}, got {number}")
    return number


def _finite_positive(x: float) -> bool:
    return x > 0 and math.isfinite(x)


_REQUIRED = object()
# The scenario fields that only some regimes read: those regimes, the value the field takes
# where one of them leaves it out (_REQUIRED: it may not), and the rule it must meet.  Any
# other regime rejects the field.  cutoff is the one integer among them.
_REGIME_FIELDS = {
    "nu": (("diffusive_shear", "fast_oscillation"), _REQUIRED, "finite and > 0", _finite_positive),
    "A": (("fast_oscillation",), _REQUIRED, "finite and >= 0", lambda x: x >= 0 and math.isfinite(x)),
    "dt": (("diffusive_shear", "fast_oscillation"), None, "positive and finite", _finite_positive),
    "eta": (("fast_oscillation",), None, "in (0, 1]", lambda e: 0.0 < e <= 1.0),
    "cutoff": (("fast_oscillation",), 16, "at least 1", lambda c: c >= 1),
}


def _regime_field(data: dict, regime: str, key: str):
    """The value of the ``_REGIME_FIELDS`` field ``key`` in a scenario of ``regime``; None where it is not read."""
    readers, default, rule, ok = _REGIME_FIELDS[key]
    value = data.get(key)
    if regime not in readers:
        if value is not None:
            scope = f"only applies to the {readers[0]}" if len(readers) == 1 else f"must be absent for the {regime}"
            raise SchemaError(f"invalid field: {key} {scope} regime")
        return None
    if value is None and default is _REQUIRED:
        raise SchemaError(f"missing field: {key} (required for regime {regime})")
    return default if value is None else _number(value, key, rule, ok, integer=key == "cutoff")


def _scenario_fields(data: dict) -> dict:
    """The Scenario fields of a scenario JSON, each checked against its one rule.

    A value of the wrong JSON type, or an object key that no field is read
    from, raises FieldError (``json_number``, ``known_keys``) or FlowSpecError
    (the flow-spec reader); ``Scenario.from_json`` turns both into a
    SchemaError.
    """
    _object(data, "scenario")
    name = _require(data, "name", "")
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise SchemaError(f"invalid field: name must be a plain file stem, got {name!r}")
    regime = _require(data, "regime", "")
    if regime not in _REGIMES:
        raise SchemaError(f"invalid field: regime must be one of {_REGIMES}, got {regime!r}")
    spec_key = "shear" if regime in ("inviscid", "diffusive_shear") else "flow"
    read = ("name", "regime", "lattice", "initial_data", spec_key, "times", "tolerances", *_REGIME_FIELDS)
    known_keys(data, read, "scenario")
    lat = known_keys(_object(_require(data, "lattice", ""), "lattice"), ("kmax", "lmax"), "lattice")
    kmax, lmax = (json_number(_require(lat, key, "lattice."), f"lattice.{key}", True) for key in ("kmax", "lmax"))
    lattice = Lattice(kmax, lmax)
    init = _object(_require(data, "initial_data", ""), "initial_data")
    terms: tuple = ()
    if "terms" in init:
        known_keys(init, ("terms",), "initial_data")
        terms = tuple(
            HarmonicTerm(*term)
            for term in _spec_terms(init, ("ampl", "kx", "ky"), "initial_data", (("kind", "cos"),))
        )
        rho0 = field_from_terms(lattice, terms)
    elif "coeffs" in init:
        known_keys(init, ("kmax", "lmax", "coeffs"), "initial_data")
        try:
            rho0 = field_from_json(init)
        except FieldError as exc:  # field_from_json names the keys of the datum object
            raise SchemaError(f"invalid field: initial_data.{exc}") from None
        if rho0.lattice != lattice:
            datum = (rho0.lattice.kmax, rho0.lattice.lmax)
            raise SchemaError(
                f"invalid field: initial_data (kmax, lmax) = {datum} must equal lattice (kmax, lmax) = {(kmax, lmax)}"
            )
        try:
            SpectralField2D(lattice, rho0.coeff, validate_real=True)
        except FieldError:
            raise SchemaError(
                "invalid field: initial_data.coeffs must describe a real field, "
                "with the conjugate symmetry c(-k,-l) = conj(c(k,l))"
            ) from None
    else:
        raise SchemaError("missing field: initial_data.terms (or initial_data.coeffs)")

    spec = flow_from_json(_require(data, spec_key, ""), spec_key)
    if spec_key == "shear" and not isinstance(spec, ShearSpec):
        raise SchemaError("invalid field: shear must describe a shear, not a 2D flow")
    if spec_key == "flow" and not isinstance(spec, FlowSpec):
        raise SchemaError("invalid field: flow must describe a 2D flow")

    times = _require(data, "times", "")
    if isinstance(times, dict):
        known_keys(times, ("t_max", "n"), "times")
        t_max = _number(_require(times, "t_max", "times."), "times.t_max", "finite", math.isfinite)
        n = _number(_require(times, "n", "times."), "times.n", "at least 1", lambda x: x >= 1, integer=True)
        times = np.linspace(0.0, t_max, n)
    elif isinstance(times, list):
        times = [json_number(t, f"times[{i}]") for i, t in enumerate(times)]
    else:
        raise SchemaError(f"invalid field: times must be a list or an object, got {times!r}")

    tolerances = known_keys(_object(data.get("tolerances", {}), "tolerances"), ("margin",), "tolerances")
    margin = tolerances.get("margin", 1e-6)
    return {
        "name": name,
        "regime": regime,
        "lattice": lattice,
        "rho0": rho0,
        "initial_terms": terms,
        "shear_spec": spec if spec_key == "shear" else None,
        "flow_spec": spec if spec_key == "flow" else None,
        **{key: _regime_field(data, regime, key) for key in _REGIME_FIELDS},
        "times": shear._check_times(times),
        "tol": _number(margin, "tolerances.margin", "finite and in [0, 1)", lambda m: 0.0 <= m < 1.0),
    }


def _read_json(path: str | Path):
    """The parsed JSON of a scenario file; a file that cannot be opened or parsed is a SchemaError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"cannot read scenario file {path}: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    """Validated scenario; a ``_REGIME_FIELDS`` field its regime does not read is None."""

    name: str
    regime: str
    lattice: Lattice
    rho0: SpectralField2D
    initial_terms: tuple
    shear_spec: ShearSpec | None
    flow_spec: FlowSpec | None
    nu: float | None
    A: float | None
    times: np.ndarray
    dt: float | None
    cutoff: int | None
    eta: float | None
    tol: float

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        """The scenario a JSON object describes; malformed or out-of-range data is a SchemaError."""
        try:
            return cls(**_scenario_fields(data))
        except (FieldError, FlowSpecError) as exc:  # raised while the lattice, datum, spec or times are built
            raise SchemaError(f"invalid field: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        return cls.from_json(_read_json(path))


@dataclass
class ScenarioReport:
    """All bound reports for one scenario; PASS iff every check passes."""

    name: str
    regime: str
    checks: dict[str, BoundReport]
    verdict: str
    min_margin: float
    runtime: float = 0.0
    trajectory: shear.FieldTrajectory | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        """Every field but the trajectory, each check as its report JSON."""
        payload = {key: value for key, value in vars(self).items() if key != "trajectory"}
        return {**payload, "checks": {k: r.to_json() for k, r in sorted(self.checks.items())}}


def _certify(scenario: Scenario) -> dict:
    """The certificates of a scenario's regime, keyed by certificate kind.

    inviscid -> {"inviscid"}; diffusive_shear -> {"c2", "mix"};
    fast_oscillation -> {"fast"}.
    """
    if scenario.regime == "inviscid":
        return {"inviscid": inviscid.inviscid_certificate(scenario.rho0, scenario.shear_spec)}
    if scenario.regime == "diffusive_shear":
        M = scenario.shear_spec.M
        c2cert = certificates.c2_certificate(scenario.rho0, M, scenario.nu)
        return {"c2": c2cert, "mix": certificates.mixing_certificate(scenario.rho0, M, scenario.nu, c2cert.c2)}
    op, spectrum = _fast_spectrum(scenario)
    syl = averaging.sylvester_constant(op, spectrum)
    return {
        "fast": averaging.fast_certificate(scenario.flow_spec, scenario.rho0, scenario.nu, scenario.eta, spectrum, syl)
    }


def _fast_spectrum(scenario: Scenario) -> tuple[averaging.AveragedOperator, averaging.DetectingSpectrum]:
    """Averaged operator at the scenario cutoff and the datum's detecting spectrum.

    The datum is rebuilt on the cutoff lattice from its harmonic terms when it
    has them, so the spectrum sees it at the operator's resolution.
    """
    cutoff = Lattice(scenario.cutoff, scenario.cutoff)
    rho_spec = field_from_terms(cutoff, scenario.initial_terms) if scenario.initial_terms else scenario.rho0
    op = averaging.averaged_operator(scenario.flow_spec, scenario.nu, cutoff)
    return op, averaging.detecting_spectrum(op, rho_spec)


def run(scenario: Scenario) -> ScenarioReport:
    """Certify, evolve and check one scenario; deterministic, no randomness."""
    t0 = time.perf_counter()
    certs = _certify(scenario)
    name, tol = scenario.name, scenario.tol
    if scenario.regime == "inviscid":
        traj = inviscid.evolve_inviscid(scenario.rho0, scenario.shear_spec, scenario.times)
        checks = {"inviscid": inviscid.check_inviscid_bound(traj, certs["inviscid"], tol, name)}
    elif scenario.regime == "diffusive_shear":
        traj = shear.evolve_shear(scenario.rho0, scenario.shear_spec, scenario.nu, scenario.times, dt=scenario.dt)
        checks = {
            "c2_floor": certificates.check_exponential_bound(traj, certs["c2"], tol, name),
            "heat_ceiling": certificates.check_upper_envelope(traj, certs["c2"], tol=tol, scenario=name),
            "mixing_floor": certificates.check_mixing_bound(traj, certs["mix"], tol, name),
        }
    else:
        traj = averaging.evolve_2d(
            scenario.rho0, scenario.flow_spec, scenario.A, scenario.nu, scenario.times, dt=scenario.dt
        )
        checks = {"fast_floor": averaging.check_fast_bound(traj, certs["fast"], scenario.A, tol, name)}
    return ScenarioReport(
        name=name,
        regime=scenario.regime,
        checks=checks,
        verdict="PASS" if all(r.passed for r in checks.values()) else "FAIL",
        min_margin=min((r.min_margin for r in checks.values()), default=float("inf")),
        runtime=time.perf_counter() - t0,
        trajectory=traj,
    )


def write_timeseries_csv(report: ScenarioReport, path: str | Path, kreport: int = 2) -> None:
    """Time series CSV: t, l2, hneg1, mix_scale, per-mode energies for |k| <= kreport (at least 0)."""
    if kreport < 0:
        raise ValueError(f"kreport must be at least 0, got {kreport}")
    traj = report.trajectory
    l2, hneg1 = l2_norm(traj), hneg1_norm(traj)
    with np.errstate(divide="ignore", invalid="ignore"):
        mix_scale = np.where(l2 > 0, hneg1 / l2, np.nan)
    ks = np.arange(-kreport, kreport + 1)
    energies = np.zeros((traj.times.size, ks.size))
    inside = np.abs(ks) <= traj.lattice.kmax
    energies[:, inside] = np.sum(np.abs(traj.coeff[:, ks[inside] + traj.lattice.kmax]) ** 2, axis=-1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "l2", "hneg1", "mix_scale"] + [f"E_{k}" for k in ks])
        writer.writerows(np.column_stack((traj.times, l2, hneg1, mix_scale, energies)).tolist())


@dataclass
class CorpusSummary:
    rows: list[dict]
    n_pass: int
    n_fail: int
    n_error: int

    @property
    def exit_code(self) -> int:
        return 0 if (self.n_fail == 0 and self.n_error == 0) else 1


def _finite(obj):
    """``obj`` with None for every non-finite float: JSON has no NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def json_text(payload) -> str:
    """The indented, key-sorted JSON text of a report or certificate payload, non-finite floats as null."""
    return json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)


def corpus_run(directory: str | Path, out_dir: str | Path | None = None) -> CorpusSummary:
    """Run every scenario JSON in a directory; write summary CSV + per-scenario reports.

    I/O or schema failures become error rows and the run continues.
    """
    directory = Path(directory)
    out_dir = directory / "reports" if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(p for p in directory.glob("*.json"))

    def one(path: Path) -> dict:
        try:
            scenario = Scenario.from_file(path)
            report = run(scenario)
            out_path = out_dir / f"{scenario.name}.json"
            out_path.write_text(json_text(report.to_json()))
            return {
                "file": path.name,
                "name": scenario.name,
                "verdict": report.verdict,
                "min_margin": report.min_margin,
                "runtime": report.runtime,
                "error": "",
            }
        except Exception as exc:  # defective file: report and continue
            return {
                "file": path.name,
                "name": "",
                "verdict": "ERROR",
                "min_margin": float("nan"),
                "runtime": 0.0,
                "error": f"{type(exc).__name__}: {exc}",
            }

    rows = [one(p) for p in files]
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["file", "name", "verdict", "min_margin", "runtime", "error"])
        writer.writeheader()
        writer.writerows(rows)
    n_pass = sum(1 for r in rows if r["verdict"] == "PASS")
    n_fail = sum(1 for r in rows if r["verdict"] == "FAIL")
    n_error = sum(1 for r in rows if r["verdict"] == "ERROR")
    return CorpusSummary(rows, n_pass, n_fail, n_error)
