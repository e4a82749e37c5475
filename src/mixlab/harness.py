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
from .flows import FlowSpec, FlowSpecError, ShearSpec, flow_from_json
from .reports import BoundReport
from .spectral import (
    FieldError,
    HarmonicTerm,
    Lattice,
    SpectralField2D,
    field_from_json,
    field_from_terms,
    hneg1_norm,
    l2_norm,
    x_mode,
)

__all__ = [
    "SchemaError",
    "Scenario",
    "ScenarioReport",
    "run",
    "corpus_run",
    "json_text",
    "write_timeseries_csv",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
]

_REGIMES = ("inviscid", "diffusive_shear", "fast_oscillation")


class SchemaError(ValueError):
    """Scenario JSON violates the schema; the message carries the field path."""


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"missing field: {path}{key}")
    return data[key]


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: regime-consistent fields only."""

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
    cutoff: int
    eta: float | None
    tol: float
    raw: dict

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        name = str(_require(data, "name", ""))
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise SchemaError(f"invalid field: name must be a plain file stem, got {name!r}")
        regime = _require(data, "regime", "")
        if regime not in _REGIMES:
            raise SchemaError(f"invalid field: regime must be one of {_REGIMES}, got {regime!r}")
        lat = _require(data, "lattice", "")
        lattice = Lattice(int(_require(lat, "kmax", "lattice.")), int(_require(lat, "lmax", "lattice.")))
        init = _require(data, "initial_data", "")
        terms: tuple = ()
        if "terms" in init:
            terms = tuple(
                HarmonicTerm(
                    float(_require(t, "ampl", f"initial_data.terms[{i}].")),
                    int(_require(t, "kx", f"initial_data.terms[{i}].")),
                    int(_require(t, "ky", f"initial_data.terms[{i}].")),
                    t.get("kind", "cos"),
                )
                for i, t in enumerate(init["terms"])
            )
            rho0 = field_from_terms(lattice, terms)
        elif "coeffs" in init:
            rho0 = field_from_json(init)
        else:
            raise SchemaError("missing field: initial_data.terms (or initial_data.coeffs)")

        nu = data.get("nu")
        if regime == "inviscid":
            if nu is not None:
                raise SchemaError("invalid field: nu must be absent for the inviscid regime")
        else:
            if nu is None:
                raise SchemaError(f"missing field: nu (required for regime {regime})")
            nu = float(nu)
            if not (nu > 0 and math.isfinite(nu)):
                raise SchemaError(f"invalid field: nu must be finite and > 0, got {nu}")

        spec_key = "shear" if regime in ("inviscid", "diffusive_shear") else "flow"
        try:
            spec = flow_from_json(_require(data, spec_key, ""))
        except FlowSpecError as exc:  # a malformed or inconsistent flow spec is bad input
            raise SchemaError(f"invalid field: {exc}") from None
        if spec_key == "shear" and not isinstance(spec, ShearSpec):
            raise SchemaError("invalid field: shear must describe a shear, not a 2D flow")
        if spec_key == "flow" and not isinstance(spec, FlowSpec):
            raise SchemaError("invalid field: flow must describe a 2D flow")
        shear_spec = spec if spec_key == "shear" else None
        flow_spec = spec if spec_key == "flow" else None

        A = data.get("A")
        if regime == "fast_oscillation":
            if A is None:
                raise SchemaError("missing field: A (required for regime fast_oscillation)")
            A = float(A)
            if not (A >= 0 and math.isfinite(A)):
                raise SchemaError(f"invalid field: A must be finite and >= 0, got {A}")
        elif A is not None:
            raise SchemaError("invalid field: A only applies to the fast_oscillation regime")

        times_spec = _require(data, "times", "")
        if isinstance(times_spec, dict):
            t_max = float(_require(times_spec, "t_max", "times."))
            if not math.isfinite(t_max):
                raise SchemaError(f"invalid field: times.t_max must be finite, got {t_max}")
            n = int(_require(times_spec, "n", "times."))
            times = np.linspace(0.0, t_max, n)
        else:
            times = [float(t) for t in times_spec]
        try:
            times = shear._check_times(times)
        except FieldError as exc:
            raise SchemaError(f"invalid field: {exc}") from None

        dt = data.get("dt")
        if dt is not None:
            dt = float(dt)
            if not (dt > 0 and math.isfinite(dt)):
                raise SchemaError(f"invalid field: dt must be positive and finite, got {dt}")

        cutoff = int(data.get("cutoff", 16))
        if cutoff < 1:
            raise SchemaError(f"invalid field: cutoff must be at least 1, got {cutoff}")
        eta = data.get("eta")
        if eta is not None:
            eta = float(eta)
            if not 0.0 < eta <= 1.0:
                raise SchemaError(f"invalid field: eta must be in (0, 1], got {eta}")

        tol = float(data.get("tolerances", {}).get("margin", 1e-6))
        if not 0.0 <= tol < 1.0:
            raise SchemaError(f"invalid field: tolerances.margin must be finite and in [0, 1), got {tol}")
        return cls(
            name=name,
            regime=regime,
            lattice=lattice,
            rho0=rho0,
            initial_terms=terms,
            shear_spec=shear_spec,
            flow_spec=flow_spec,
            nu=nu,
            A=A,
            times=times,
            dt=dt,
            cutoff=cutoff,
            eta=eta,
            tol=tol,
            raw=data,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass
class ScenarioReport:
    """All bound reports for one scenario; PASS iff every check passes."""

    name: str
    regime: str
    checks: dict[str, BoundReport]
    verdict: str
    min_margin: float
    runtime: float = 0.0
    trajectory: object = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "regime": self.regime,
            "verdict": self.verdict,
            "min_margin": self.min_margin,
            "runtime": self.runtime,
            "checks": {k: r.to_json() for k, r in sorted(self.checks.items())},
        }


def _finish(name: str, regime: str, checks: dict[str, BoundReport], t0: float, trajectory=None) -> ScenarioReport:
    return ScenarioReport(
        name=name,
        regime=regime,
        checks=checks,
        verdict="PASS" if all(r.passed for r in checks.values()) else "FAIL",
        min_margin=min((r.min_margin for r in checks.values()), default=float("inf")),
        runtime=time.perf_counter() - t0,
        trajectory=trajectory,
    )


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
    return _finish(name, scenario.regime, checks, t0, trajectory=traj)


def write_timeseries_csv(report: ScenarioReport, path: str | Path, kreport: int = 2) -> None:
    """Time series CSV: t, l2, hneg1, mix_scale, per-mode energies for |k| <= kreport."""
    traj = report.trajectory
    ks = [k for k in range(-kreport, kreport + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "l2", "hneg1", "mix_scale"] + [f"E_{k}" for k in ks])
        for t, f in zip(traj.times, traj.fields):
            l2 = l2_norm(f)
            row = [float(t), l2, hneg1_norm(f), (hneg1_norm(f) / l2 if l2 > 0 else float("nan"))]
            for k in ks:
                if abs(k) <= f.lattice.kmax:
                    prof = x_mode(f, k)
                    row.append(float(np.sum(np.abs(prof.coeff) ** 2)))
                else:
                    row.append(0.0)
            writer.writerow(row)


BUILTIN_SCENARIOS: dict[str, dict] = {
    "heat_cosy": {
        "name": "heat_cosy",
        "regime": "diffusive_shear",
        "lattice": {"kmax": 2, "lmax": 4},
        "initial_data": {"terms": [{"ampl": 1.0, "kx": 0, "ky": 1, "kind": "cos"}]},
        "shear": "zero",
        "nu": 0.1,
        "times": {"t_max": 5.0, "n": 26},
    },
    "sharpness_p1_nu025": {
        "name": "sharpness_p1_nu025",
        "regime": "diffusive_shear",
        "lattice": {"kmax": 1, "lmax": 6},
        "initial_data": {"terms": [{"ampl": 1.0, "kx": 0, "ky": 4, "kind": "cos"}]},
        "shear": "zero",
        "nu": 0.25,
        "times": {"t_max": 2.0, "n": 21},
    },
    "sinshear_cosx": {
        "name": "sinshear_cosx",
        "regime": "diffusive_shear",
        "lattice": {"kmax": 3, "lmax": 16},
        "initial_data": {"terms": [{"ampl": 1.0, "kx": 1, "ky": 0, "kind": "cos"}]},
        "shear": {
            "kind": "shear",
            "terms": [{"ampl": 1.0, "kx": 0, "ky": 1, "phase_mode": "sin", "time_mode": "const"}],
            "bounds": {"M": 1.0, "w11": 0.6366197723675814},
            "period": 6.283185307179586,
        },
        "nu": 0.1,
        "times": {"t_max": 5.0, "n": 26},
        "dt": 0.005,
    },
    "inviscid_cosx_siny": {
        "name": "inviscid_cosx_siny",
        "regime": "inviscid",
        "lattice": {"kmax": 2, "lmax": 2},
        "initial_data": {"terms": [{"ampl": 1.0, "kx": 1, "ky": 0, "kind": "cos"}]},
        "shear": {
            "kind": "shear",
            "terms": [{"ampl": 1.0, "kx": 0, "ky": 1, "phase_mode": "sin", "time_mode": "const"}],
            "bounds": {"M": 1.0, "w11": 0.6366197723675814},
            "period": 6.283185307179586,
        },
        "times": {"t_max": 50.0, "n": 51},
    },
    "fast_shear_mean": {
        "name": "fast_shear_mean",
        "regime": "fast_oscillation",
        "lattice": {"kmax": 8, "lmax": 8},
        "initial_data": {"terms": [{"ampl": 1.0, "kx": 0, "ky": 1, "kind": "cos"}]},
        "flow": {
            "kind": "flow2d",
            "terms": [
                {"ampl": 1.0, "kx": 0, "ky": 1, "phase_mode": "cos", "time_mode": "const"},
                {"ampl": 1.0, "kx": 1, "ky": 0, "phase_mode": "cos", "time_mode": "cos"},
            ],
            "bounds": {"lip": 1.0},
            "period": 1.0,
        },
        "nu": 0.1,
        "A": 100.0,
        "cutoff": 12,
        "times": {"t_max": 2.0, "n": 21},
    },
}


def builtin_scenario(name: str) -> Scenario:
    """Named scenarios shipped with the package (see BUILTIN_SCENARIOS)."""
    if name not in BUILTIN_SCENARIOS:
        raise SchemaError(f"unknown builtin scenario {name!r}; have {sorted(BUILTIN_SCENARIOS)}")
    return Scenario.from_json(json.loads(json.dumps(BUILTIN_SCENARIOS[name])))


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
