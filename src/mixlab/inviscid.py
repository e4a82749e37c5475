"""Exact inviscid shear transport and its polynomial mixing certificate.

A shear U(t,y) leaves x-frequencies uncoupled: under theta_t + U theta_x = 0
the k-th mode moves by the unimodular phase e^{-ik Phi(y,t)}, Phi the time
integral of the shear, so each mode's L^2_y mass is conserved while its
y-spectrum spreads at most linearly in time.  That yields an explicit
all-time floor ||theta(t)||_{H^{-1}} >= c_star / (1 + t^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flows import ShearSpec, phase_integral
from .reports import BoundReport, make_report
from .shear import FieldTrajectory, _check_times, _is_real, _mirror_rows
from .spectral import (
    FieldError,
    Lattice,
    SpectralField2D,
    _power,
    embed,
    hneg1_norm,
    l2_norm,
    next_fast_len,
    y_grid_coeffs,
    y_grid_values,
)

__all__ = [
    "InviscidCertificate",
    "evolve_inviscid",
    "inviscid_certificate",
    "check_inviscid_bound",
]

# Modes with relative mass below this cannot carry a useful certificate.
_EPS_MODE = 1e-12

# Declared sup/L1 estimates are sampled on a grid; inflating them keeps the
# certificate on the safe side of the true suprema.
_DEFAULT_SAFETY = 1.01

# The certificate samples each mode profile on this many times its lattice extent.
_CERT_OVERSAMPLE = 4

# Largest drift of the x-mode masses, summed over modes and relative to the
# total mass at the first sample, that the map may show.
_MASS_TOL = 1e-8

# Most complex grid values evolve_inviscid holds at once (16 MB); sample times
# are transformed in blocks that fit, so memory does not grow with their number.
_GRID_BUDGET = 1 << 20


@dataclass(frozen=True)
class InviscidCertificate:
    """Constants of the polynomial H^{-1} lower bound for one x-mode.

    S is the conserved mode mass, A and B control the linear-in-time growth
    of the mode's y-derivative L^1 norm (V(t) = A + B t), D the resulting
    growth of the retained frequency window, and
    c_star = sqrt(S / (2 (k^2 + 2 D^2))).  A stationary certificate (datum
    independent of x) instead freezes c_star at the initial H^{-1} norm.
    """

    k: int
    S: float
    A: float
    B: float
    D: float
    c_star: float
    stationary: bool = False
    safety: float = _DEFAULT_SAFETY

    def tail_cutoff(self, t):
        """N(t) = max(1, ceil(4 V(t)^2 / S)), per entry for an array t; beyond it the y-tail holds at most S/2."""
        if self.stationary:
            raise FieldError("stationary certificate has no tail cutoff")
        v = self.A + self.B * np.asarray(t, dtype=float)
        return np.maximum(1.0, np.ceil(4.0 * v * v / self.S))

    def to_json(self) -> dict:
        return {"kind": "inviscid", **vars(self)}


def _phase_bandwidth(phi_coeffs: np.ndarray, k: int) -> int:
    """Safe y-bandwidth for e^{-ik Phi}: instantaneous frequency plus Airy-type margin.

    For Phi ~ a cos(q y) the coefficients of e^{-ik Phi} sit at l = q n with
    Bessel weight J_n(k a), whose tail beyond the turning point n = k a has an
    Airy width ~ (k a)^{1/3} in n; in l-units, with base = q k a, the margin
    is 12 q + 8 q^{2/3} base^{1/3}, q the largest |l| the phase holds.
    """
    lmax = (len(phi_coeffs) - 1) // 2
    ls = np.arange(-lmax, lmax + 1)
    dphi_sup = float(np.sum(np.abs(ls * phi_coeffs)))
    base = abs(k) * dphi_sup
    if base == 0.0:
        return 0  # a phase constant in y moves no mass between l-modes
    q = int(np.max(np.abs(ls[phi_coeffs != 0])))
    margin = 12.0 * q + 8.0 * q ** (2.0 / 3.0) * base ** (1.0 / 3.0)
    return int(math.ceil(base + margin))


def _phase_block(phis: np.ndarray, ks: np.ndarray, datum: np.ndarray, lmax: int) -> np.ndarray:
    """Coefficients of the datum rows times e^{-ik Phi} at a block of sample times, by one batched FFT pair."""
    vals = -1j * ks[:, None] * y_grid_values(phis, datum.shape[-1]).real[:, None, :]
    np.exp(vals, out=vals)
    vals *= datum
    return y_grid_coeffs(vals, lmax)


def evolve_inviscid(theta0: SpectralField2D, shear: ShearSpec, times) -> FieldTrajectory:
    """Exact transport of theta0 by the shear, sampled at the given times.

    Each nonzero x-mode k is multiplied pointwise in y by e^{-ik Phi(y,t)},
    Phi the time integral of the whole shear (its y-mean is a rigid drift);
    x-independent modes are stationary.  All modes at a block of sample times
    form one stacked array that one batched FFT returns to coefficients; the
    blocks hold at most _GRID_BUDGET grid values.  The stacked fields share
    one lattice, enlarged in l so the phase is resolved at the worst sample
    time; check_inviscid_bound audits the conserved mode masses.  A real
    datum, exactly conjugate-symmetric, has only its rows with k > 0 moved;
    each k < 0 row is then the conjugate of its mirror row, filled in place.
    """
    times = _check_times(times)
    lattice = theta0.lattice
    c = theta0.coeff
    ks = lattice.k_values()
    real = _is_real(c)
    rows = np.flatnonzero(np.any(np.abs(c) > 0.0, axis=1) & ((ks > 0) if real else (ks != 0)))
    ks = ks[rows]
    phis = np.array([phase_integral(shear, float(t)) for t in times])
    k_top = int(np.max(np.abs(ks), initial=0))
    extra = max(_phase_bandwidth(phi, k_top) for phi in phis) if rows.size else 0
    out_lattice = Lattice(lattice.kmax, lattice.lmax + extra)
    ny = next_fast_len(2 * (2 * out_lattice.lmax + 1))
    moved = []
    if rows.size:
        datum = y_grid_values(c[rows], ny)
        block = max(1, _GRID_BUDGET // (rows.size * ny))
        moved = [
            (s, _phase_block(phis[s : s + block], ks, datum, out_lattice.lmax)) for s in range(0, len(times), block)
        ]
    # the output stack is built once the grid blocks are freed: that keeps the peak memory down
    coeff = np.repeat(embed(theta0, out_lattice).coeff[None], len(times), axis=0)
    for s, m in moved:
        coeff[s : s + len(m), rows] = m
    if real:
        moved = m = None  # numpy copies the mirror fill's source rows: free the moved rows first
        _mirror_rows(coeff, lattice.kmax)
    return FieldTrajectory(0.0, times, out_lattice, coeff)


def inviscid_certificate(theta0: SpectralField2D, shear: ShearSpec) -> InviscidCertificate:
    """Certificate constants for the polynomial H^{-1} floor.

    Every nonzero x-mode certifies the bound; the mode maximizing c_star is
    selected since the strongest floor is the most informative.  An
    x-independent datum is stationary under any shear, so the certificate
    degenerates to the constant floor c_star = ||theta0||_{H^{-1}}.
    """
    lattice = theta0.lattice
    total = l2_norm(theta0)
    if total == 0.0:
        raise FieldError("certificate requires a nonzero datum")

    candidates = []
    for k in range(-lattice.kmax, lattice.kmax + 1):
        if k == 0:
            continue
        mass = float(np.sum(np.abs(theta0.coeff[k + lattice.kmax, :]) ** 2))
        if math.sqrt(mass) >= _EPS_MODE * total:
            candidates.append((k, mass))
    if not candidates:
        return InviscidCertificate(
            k=0, S=0.0, A=0.0, B=0.0, D=0.0, c_star=hneg1_norm(theta0), stationary=True, safety=_DEFAULT_SAFETY
        )

    ny = next_fast_len(_CERT_OVERSAMPLE * (2 * lattice.lmax + 1))
    rows = theta0.coeff[[k + lattice.kmax for k, _ in candidates]]
    f_vals = y_grid_values(rows, ny)
    df_vals = y_grid_values(1j * lattice.l_values() * rows, ny)
    best: InviscidCertificate | None = None
    for (k, mass), f, df in zip(candidates, f_vals, df_vals):
        a_const = float(np.mean(np.abs(df))) * _DEFAULT_SAFETY
        sup_f = float(np.max(np.abs(f))) * _DEFAULT_SAFETY
        b_const = abs(k) * shear.w11 * sup_f
        d_const = 1.0 + 8.0 * (a_const**2 + b_const**2) / mass
        c_star = math.sqrt(mass / (2.0 * (k * k + 2.0 * d_const**2)))
        cert = InviscidCertificate(k=k, S=mass, A=a_const, B=b_const, D=d_const, c_star=c_star, safety=_DEFAULT_SAFETY)
        if (
            best is None
            or cert.c_star > best.c_star
            or (cert.c_star == best.c_star and (abs(cert.k), -cert.k) < (abs(best.k), -best.k))
        ):
            best = cert
    assert best is not None
    return best


def check_inviscid_bound(
    trajectory: FieldTrajectory,
    cert: InviscidCertificate,
    tol: float = 1e-6,
    scenario: str = "",
) -> BoundReport:
    """Verify ||theta(t)||_{H^{-1}} (1+t^2) >= c_star along an evolve_inviscid trajectory.

    For a non-stationary certificate the report also audits the map: in the
    certified mode the mass above the window N(t) never exceeds half the
    conserved mode mass S; and, as the exact map conserves every x-mode's
    mass, the drifts of the mode masses from the first sample, summed over
    the modes, stay below _MASS_TOL times the total mass there.  A first
    sample of zero mass makes that drift infinite (``null`` in the report
    JSON) and fails the audit.
    """
    times, measured = trajectory.times, hneg1_norm(trajectory)
    extras = {}
    if not cert.stationary:
        power = _power(trajectory)
        beyond = np.abs(trajectory.lattice.l_values()) > cert.tail_cutoff(times)[:, None]
        tails = np.sum(power[:, cert.k + trajectory.lattice.kmax] * beyond, axis=-1)
        masses = np.sum(power, axis=-1)  # (sample, x-mode)
        drifts = np.sum(np.abs(masses - masses[0]), axis=-1)
        max_tail_ratio = float(np.max(tails, initial=0.0)) / (cert.S / 2.0)
        total = float(np.sum(masses[0]))
        # a zero first sample has no mass to drift from: the audit fails, with no division
        max_mass_drift = float(np.max(drifts, initial=0.0)) / total if total > 0.0 else math.inf
        extras["max_tail_ratio"] = max_tail_ratio
        extras["tail_ok"] = bool(max_tail_ratio <= 1.0 + 1e-12)
        extras["max_mass_drift"] = max_mass_drift
        extras["mass_ok"] = bool(max_mass_drift <= _MASS_TOL)
    log_env = math.log(cert.c_star) - np.log1p(times * times)
    return make_report(scenario, "inviscid_hneg1_poly", cert.to_json(), times, measured, log_env, tol, extras)
