"""Explicit lower-bound certificates for diffusive shear transport.

Two constant chains are evaluated from the initial datum and the declared
shear bound M = sup|U|:

* an admissible exponential decay exponent c2 with
  ||rho(t)||_2 >= ||rho0||_2 e^{-c2 t}, built per x-mode from short-time
  contraction constants and a lifted-resolvent block estimate, then minimized
  over modes;
* a uniform mixing-scale floor c_star = 1/(2 R_star) with
  ||rho(t)||_{H^{-1}} / ||rho(t)||_2 >= c_star, built from frequency windows
  that provably retain half of the relevant energy for all time.

Every intermediate constant is kept on the certificate records for audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import BoundReport, make_report
from .shear import FieldTrajectory
from .spectral import (
    HarmonicTerm,
    Lattice,
    SpectralField2D,
    dx_l2,
    field_from_terms,
    hneg1_norm,
    l2_norm,
    laplacian_l2,
    x_mode,
)
from .flows import ShearSpec

__all__ = [
    "CertificateError",
    "RESOLVENT_CONST",
    "ModeRecord",
    "HeatModeRecord",
    "C2Certificate",
    "MixModeRecord",
    "MixCertificate",
    "SharpnessScenario",
    "NuScalingRow",
    "mode_mk",
    "c2_certificate",
    "mixing_certificate",
    "sharpness_family",
    "nu_scaling_report",
    "check_exponential_bound",
    "check_upper_envelope",
    "check_mixing_bound",
]

# Uniform constant absorbing the numerical factors of the resolvent-block
# estimate; it enters the m_k selection rule and D_k and is never inlined.
RESOLVENT_CONST = 1.0e4

# A mode counts as present when its mass clears this fraction of the total:
# below it the log-divergence of the exponent makes the mode irrelevant
# before it could influence the minimum.
EPS_MODE = 1e-12

# Relative slack of the heat-scale ceiling N e^{-nu t} (1 + slack).
CEILING_SLACK = 1e-8

# Absolute tolerance of the per-mode retention audit of the mixing floor.
RETENTION_TOL = 1e-8


class CertificateError(ValueError):
    """Certificate preconditions violated (zero datum, bad parameters, ...)."""


@dataclass(frozen=True)
class ModeRecord:
    """Full constant chain for one nonzero x-mode k."""

    k: int
    a_k: float
    L_k: float
    beta_k: float
    delta_k: float
    m_k: int
    Lambda_k: float
    D_k: float
    theta_k: float
    gamma_k: float
    C_k: float


@dataclass(frozen=True)
class HeatModeRecord:
    """Candidate exponent from one vertical frequency of an x-independent datum."""

    l: int
    b_l: float
    C_l: float


@dataclass(frozen=True)
class C2Certificate:
    """Admissible exponential lower-decay exponent and its audit trail."""

    N: float
    M: float
    nu: float
    L0: float
    beta0: float
    delta0: float
    branch: str  # "x_modes" | "heat_only"
    records: tuple
    selected: int  # k_star for the x branch, l_star for the heat branch
    c2: float

    def log_envelope(self, t: float) -> float:
        return math.log(self.N) - self.c2 * t

    def to_json(self) -> dict:
        return {"kind": "c2", **vars(self), "records": tuple(dict(vars(r)) for r in self.records)}


def mode_mk(k: int, M: float, nu: float, delta_k: float) -> int:
    """Least integer m >= 1 placing the resolvent block constants below their caps.

    The two requirements are C_res k^2 M^2 / (nu^2 m^2) <= 1/4 and
    C_res / (nu m) <= delta_k / 16; the closed-form candidate
    max(ceil(200 |k| M / nu), ceil(16 C_res / (nu delta_k)), 1) is nudged
    against the raw inequalities to absorb float boundary cases.
    """
    if k == 0:
        raise CertificateError("m_k is defined for nonzero x-modes only")
    if not (M >= 0 and math.isfinite(M)):
        raise CertificateError("m_k requires a finite M >= 0")
    if not (nu > 0 and math.isfinite(nu)) or not (delta_k > 0 and math.isfinite(delta_k)):
        raise CertificateError("m_k requires finite nu > 0 and delta_k > 0")

    def ok(m: int) -> bool:
        return (
            RESOLVENT_CONST * k * k * M * M / (nu * nu * m * m) <= 0.25
            and RESOLVENT_CONST / (nu * m) <= delta_k / 16.0
        )

    m1 = math.ceil(2.0 * math.sqrt(RESOLVENT_CONST) * abs(k) * M / nu)
    m2 = math.ceil(16.0 * RESOLVENT_CONST / (nu * delta_k))
    m = max(m1, m2, 1)
    while m > 1 and ok(m - 1):
        m -= 1
    while not ok(m):
        m += 1
    return m


def _mode_masses(rho0: SpectralField2D) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(rho0.coeff) ** 2, axis=1))


def _x_mode_record(rho0: SpectralField2D, k: int, a_k: float, M: float, nu: float, beta0: float, N: float) -> ModeRecord:
    g = x_mode(rho0, k)
    ls = g.l_values().astype(float)
    akg = math.sqrt(float(np.sum((k * k + ls * ls) ** 2 * np.abs(g.coeff) ** 2)))
    L_k = nu * akg + abs(k) * M * a_k
    beta_k = 2.0 * L_k / a_k
    delta_k = 1.0 / beta_k
    m_k = mode_mk(k, M, nu, delta_k)
    Lambda_k = nu * (k * k + m_k * m_k + m_k + 0.5)
    D_k = RESOLVENT_CONST / (nu * m_k)
    theta_k = min(1.0, math.sqrt(delta_k / (32.0 * D_k)))
    gamma_k = max(beta_k, Lambda_k + beta_k * math.log(1.0 / theta_k))
    C_k = max(beta0, gamma_k + beta0 * math.log(N / a_k))
    return ModeRecord(k, a_k, L_k, beta_k, delta_k, m_k, Lambda_k, D_k, theta_k, gamma_k, C_k)


def c2_certificate(rho0: SpectralField2D, M: float, nu: float) -> C2Certificate:
    """Evaluate the admissible decay exponent c2 for the datum and shear bound M.

    When a nonzero x-mode is present the exponent is the minimum of the
    per-mode candidates C_k; candidate modes are visited in order of a cheap
    lower estimate of C_k and the scan stops as soon as that estimate exceeds
    the incumbent (the estimate diverges with |k|, so the stop is sound).
    An x-independent datum instead minimizes the heat-branch candidates over
    its vertical frequencies.
    """
    if not (nu > 0 and math.isfinite(nu)):
        raise CertificateError("c2 requires finite nu > 0")
    if not (M >= 0 and math.isfinite(M)):
        raise CertificateError("shear bound M must be finite and >= 0")
    N = l2_norm(rho0)
    if N == 0.0:
        raise CertificateError("c2 certificate requires a nonzero datum")
    lattice = rho0.lattice
    dx_norm = dx_l2(rho0)
    L0 = nu * laplacian_l2(rho0) + M * dx_norm
    beta0 = 2.0 * L0 / N
    delta0 = 1.0 / beta0
    masses = _mode_masses(rho0)
    ks = lattice.k_values()

    x_candidates = [
        (int(k), float(a))
        for k, a in zip(ks, masses)
        if k != 0 and a >= EPS_MODE * N
    ]
    if x_candidates:
        def lower_est(k: int) -> float:
            log_term = math.log(N * abs(k) / dx_norm) if dx_norm > 0 else 0.0
            return max(beta0, 2.0 * nu * k * k + beta0 * max(0.0, log_term))

        ordered = sorted(x_candidates, key=lambda ka: (lower_est(ka[0]), abs(ka[0]), -ka[0]))
        records: list[ModeRecord] = []
        best: ModeRecord | None = None
        for k, a_k in ordered:
            if best is not None and lower_est(k) >= best.C_k:
                break
            rec = _x_mode_record(rho0, k, a_k, M, nu, beta0, N)
            records.append(rec)
            if (
                best is None
                or rec.C_k < best.C_k
                or (rec.C_k == best.C_k and (abs(rec.k), -rec.k) < (abs(best.k), -best.k))
            ):
                best = rec
        assert best is not None
        return C2Certificate(
            N, M, nu, L0, beta0, delta0, "x_modes", tuple(records), best.k, best.C_k
        )

    # heat branch: datum independent of x
    heat_row = rho0.coeff[lattice.kmax, :]
    ls = lattice.l_values()
    candidates = [
        (int(l), float(abs(c))) for l, c in zip(ls, heat_row) if l != 0 and abs(c) >= EPS_MODE * N
    ]
    if not candidates:
        raise CertificateError("datum has no resolvable modes above threshold")
    ordered = sorted(candidates, key=lambda lb: (max(beta0, nu * lb[0] ** 2), abs(lb[0]), -lb[0]))
    records_h: list[HeatModeRecord] = []
    best_h: HeatModeRecord | None = None
    for l, b_l in ordered:
        if best_h is not None and max(beta0, nu * l * l) >= best_h.C_l:
            break
        C_l = max(beta0, nu * l * l + beta0 * math.log(N / b_l))
        rec = HeatModeRecord(l, b_l, C_l)
        records_h.append(rec)
        if (
            best_h is None
            or rec.C_l < best_h.C_l
            or (rec.C_l == best_h.C_l and (abs(rec.l), -rec.l) < (abs(best_h.l), -best_h.l))
        ):
            best_h = rec
    assert best_h is not None
    return C2Certificate(
        N, M, nu, L0, beta0, delta0, "heat_only", tuple(records_h), best_h.l, best_h.C_l
    )


@dataclass(frozen=True)
class MixModeRecord:
    """Vertical retention window for one retained x-mode."""

    k: int
    a_k: float
    J_k: int
    N_k: int
    radius_sq: int  # k^2 + N_k^2 (N_0^2 for k = 0)


@dataclass(frozen=True)
class MixCertificate:
    """Uniform mixing-scale floor c_star = 1/(2 R_star) and its window table."""

    c2: float
    nu: float
    M: float
    N: float
    K_c: int
    K_0: int
    K: int
    modes: tuple
    R_star: float
    c_star: float

    def to_json(self) -> dict:
        return {"kind": "mix", **vars(self), "modes": tuple(dict(vars(m)) for m in self.modes)}


def mixing_certificate(rho0: SpectralField2D, M: float, nu: float, c2: float) -> MixCertificate:
    """Frequency windows retaining half the energy for all time, hence the floor.

    K keeps enough x-modes (half the initial mass, and dissipation rate above
    c2 outside); per retained mode, N_k keeps the initial vertical half-mass
    window enlarged past the shear-transfer barrier |k| M / nu.  All tail sums
    are exact on the truncated spectrum.
    """
    if not (nu > 0 and math.isfinite(nu)) or not (c2 > 0 and math.isfinite(c2)):
        raise CertificateError("mixing certificate requires finite nu > 0 and c2 > 0")
    if not (M >= 0 and math.isfinite(M)):
        raise CertificateError("shear bound M must be finite and >= 0")
    N = l2_norm(rho0)
    if N == 0.0:
        raise CertificateError("mixing certificate requires a nonzero datum")
    lattice = rho0.lattice
    ks = lattice.k_values()
    masses_sq = np.sum(np.abs(rho0.coeff) ** 2, axis=1)

    K_c = math.ceil(math.sqrt(2.0 * c2 / nu))
    half = N * N / 2.0
    K_0 = 0
    while float(np.sum(masses_sq[np.abs(ks) > K_0])) > half:
        K_0 += 1
    K = max(K_c, K_0)

    retained = [
        int(k)
        for k, m2 in zip(ks, masses_sq)
        if abs(k) <= K and math.sqrt(float(m2)) >= EPS_MODE * N
    ]
    if not retained:
        raise CertificateError("no retained x-mode: datum mass is concentrated beyond the cutoff")

    ls = lattice.l_values()
    records: list[MixModeRecord] = []
    radius_sq_max = 0
    for k in retained:
        row = rho0.coeff[k + lattice.kmax, :]
        a_sq = float(np.sum(np.abs(row) ** 2))
        a_k = math.sqrt(a_sq)
        J = 1
        while float(np.sum(np.abs(row[np.abs(ls) > J]) ** 2)) > a_sq / 2.0:
            J += 1
        if k == 0:
            N_k = J
            radius_sq = N_k * N_k
        else:
            N_k = max(J, math.ceil(abs(k) * M / nu), 1)
            radius_sq = k * k + N_k * N_k
        records.append(MixModeRecord(k, a_k, J, N_k, radius_sq))
        radius_sq_max = max(radius_sq_max, radius_sq)

    R_star = math.sqrt(float(radius_sq_max))
    return MixCertificate(c2, nu, M, N, K_c, K_0, K, tuple(records), R_star, 1.0 / (2.0 * R_star))


@dataclass(frozen=True)
class SharpnessScenario:
    """Heat eigenfunction family cos(n y) with n = ceil(nu^{-p}).

    The mixing ratio is identically 1/n while the certificate floor is
    1/(2n), so measured/certified is exactly 2; the decay rate is nu n^2,
    pinned inside [nu^{1-2p}, 4 nu^{1-2p}].
    """

    nu: float
    p: float
    n: int
    rho0: SpectralField2D
    shear: ShearSpec
    expected_ratio: float
    expected_c_star: float
    decay_rate: float
    rate_window: tuple[float, float]

    def to_json(self) -> dict:
        return {
            "nu": self.nu,
            "p": self.p,
            "n": self.n,
            "expected_ratio": self.expected_ratio,
            "expected_c_star": self.expected_c_star,
            "decay_rate": self.decay_rate,
            "rate_window": list(self.rate_window),
        }


def sharpness_family(nu: float, p: float) -> SharpnessScenario:
    """Construct the sharpness scenario for diffusivity nu and exponent p."""
    if not (0.0 < nu <= 1.0):
        raise CertificateError("sharpness family requires 0 < nu <= 1")
    if not (p > 0 and math.isfinite(p)):
        raise CertificateError("sharpness family requires finite p > 0")
    n = math.ceil(nu ** (-p))
    lattice = Lattice(1, max(n, 1))
    rho0 = field_from_terms(lattice, [HarmonicTerm(1.0, 0, n, "cos")])
    shear = ShearSpec(())
    scale = nu ** (1.0 - 2.0 * p)
    return SharpnessScenario(
        nu=nu,
        p=p,
        n=n,
        rho0=rho0,
        shear=shear,
        expected_ratio=1.0 / n,
        expected_c_star=1.0 / (2.0 * n),
        decay_rate=nu * n * n,
        rate_window=(scale, 4.0 * scale),
    )


@dataclass(frozen=True)
class NuScalingRow:
    nu: float
    c2: float
    c2_times_nu: float
    c2_over_nu: float
    branch: str

    def to_json(self) -> dict:
        return dict(vars(self))


def nu_scaling_report(rho0: SpectralField2D, M: float, nus: list[float]) -> list[NuScalingRow]:
    """Tabulate c2 against nu for fixed data.

    c2 * nu stays bounded by a data constant; on the heat branch with fixed
    datum c2 / nu is the relevant bounded ratio.  The table records both and
    asserts nothing about the mixing floor's own scaling, which is surfaced
    empirically only.
    """
    if not nus:
        raise CertificateError("nu list must be nonempty")
    if any(not (0.0 < nu <= 1.0) for nu in nus):
        raise CertificateError("nu values must lie in (0, 1]")
    if not all(b < a for a, b in zip(nus, nus[1:])):
        raise CertificateError("nu list must be strictly decreasing")
    rows = []
    for nu in nus:
        cert = c2_certificate(rho0, M, nu)
        rows.append(NuScalingRow(nu, cert.c2, cert.c2 * nu, cert.c2 / nu, cert.branch))
    return rows


def check_exponential_bound(
    trajectory: FieldTrajectory,
    cert: C2Certificate,
    tol: float = 1e-6,
    scenario: str = "",
) -> BoundReport:
    """Verify ||rho(t)||_2 e^{c2 t} / N >= 1 - tol at every sampled time."""
    times = trajectory.times
    return make_report(
        scenario, "l2_exponential_floor", cert.to_json(), times, l2_norm(trajectory), cert.log_envelope(times), tol
    )


def check_upper_envelope(
    trajectory: FieldTrajectory,
    cert: C2Certificate,
    tol: float = 1e-6,
    scenario: str = "",
) -> BoundReport:
    """Verify the heat-scale ceiling ||rho(t)||_2 <= N e^{-nu t} (1 + CEILING_SLACK).

    Reported as margin = ceiling/measured so the PASS convention matches the
    floor checks; a zero field is trivially below the ceiling (margin 1).
    """
    times = trajectory.times
    measured = l2_norm(trajectory)
    ceiling = np.exp(math.log(cert.N) - cert.nu * times + math.log1p(CEILING_SLACK))
    zero = measured == 0.0
    ceiling, log_measured = np.where(zero, 1.0, ceiling), np.log(np.where(zero, 1.0, measured))
    extras = {"orientation": "samples store (t, ceiling, measured, ceiling/measured)"}
    return make_report(scenario, "l2_heat_ceiling", cert.to_json(), times, ceiling, log_measured, tol, extras)


def check_mixing_bound(
    trajectory: FieldTrajectory,
    cert: MixCertificate,
    tol: float = 1e-6,
    scenario: str = "",
) -> BoundReport:
    """Verify mixing_scale(rho(t)) * 2 R_star >= 1 - tol at every sampled time.

    A field that has underflowed to exactly zero has no mixing scale: its
    ratio is recorded as NaN, which fails the check, since a PASS must rest
    on resolved samples.  Extras report the slack factor (worst ratio over
    the floor, among the nonzero samples) and audit the per-mode retention
    L_{k,N_k}(t) >= E_k(t)/2 - RETENTION_TOL for every certified mode.
    """
    n2 = l2_norm(trajectory)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(n2 > 0.0, hneg1_norm(trajectory) / n2, np.nan)
    kmax, lmax = trajectory.lattice.kmax, trajectory.lattice.lmax
    retention_worst = math.inf
    for rec in cert.modes:
        if abs(rec.k) > kmax:
            continue
        power = np.abs(trajectory.coeff[:, rec.k + kmax]) ** 2
        n = min(rec.N_k, lmax)
        low = np.sum(power[:, lmax - n : lmax + n + 1], axis=-1)
        retention_worst = min(retention_worst, float(np.min(low - 0.5 * np.sum(power, axis=-1))))
    resolved = ratios[~np.isnan(ratios)]
    extras = {
        "slack_factor": float(np.min(resolved, initial=math.inf)) / cert.c_star,
        "retention_min": retention_worst if retention_worst is not math.inf else 0.0,
        "retention_ok": bool(retention_worst >= -RETENTION_TOL),
    }
    log_env = -math.log(2.0 * cert.R_star)
    return make_report(scenario, "mixing_scale_floor", cert.to_json(), trajectory.times, ratios, log_env, tol, extras)
