"""Exact inviscid shear transport and its polynomial mixing certificate.

A shear U(t,y) leaves x-frequencies uncoupled: the k-th mode evolves by the
unimodular phase e^{ik Phi(y,t)} with Phi the time integral of the reduced
shear, so each mode's L^2_y mass is conserved while its y-spectrum spreads at
most linearly in time.  That yields an explicit all-time floor
||theta(t)||_{H^{-1}} >= c_star / (1 + t^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.fft import next_fast_len

from .flows import ShearSpec, mean_zero_reduce, phase_integral
from .reports import BoundReport, make_report
from .spectral import FieldError, Lattice, SpectralField2D, hneg1_norm, l2_norm

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

    def envelope(self, t: float) -> float:
        return self.c_star / (1.0 + t * t)

    def tail_cutoff(self, t: float) -> int:
        """N(t) = max(1, ceil(4 V(t)^2 / S)); beyond it the y-tail holds at most S/2."""
        if self.stationary:
            raise FieldError("stationary certificate has no tail cutoff")
        v = self.A + self.B * t
        return max(1, int(math.ceil(4.0 * v * v / self.S)))

    def to_json(self) -> dict:
        return {"kind": "inviscid", **asdict(self)}


def _phase_values(phi_coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    lmax = (len(phi_coeffs) - 1) // 2
    ls = np.arange(-lmax, lmax + 1)
    vals = np.exp(1j * np.outer(y, ls)) @ phi_coeffs
    return vals.real


def _profile_values(row: np.ndarray, lmax: int, y: np.ndarray) -> np.ndarray:
    ls = np.arange(-lmax, lmax + 1)
    return np.exp(1j * np.outer(y, ls)) @ row


def _phase_bandwidth(phi_coeffs: np.ndarray, k: int) -> int:
    """Safe y-bandwidth for e^{ik Phi}: instantaneous frequency plus Airy-type margin."""
    lmax = (len(phi_coeffs) - 1) // 2
    ls = np.arange(-lmax, lmax + 1)
    dphi_sup = float(np.sum(np.abs(ls * phi_coeffs)))
    base = abs(k) * dphi_sup
    margin = 12.0 + 8.0 * base ** (1.0 / 3.0)
    return int(math.ceil(base + margin))


def evolve_inviscid(theta0: SpectralField2D, shear: ShearSpec, t: float) -> SpectralField2D:
    """Exact transport of theta0 by the shear up to time t.

    The constant-in-y part of the shear is split off as a rigid x-translation
    (a pure phase on the coefficients); each nonzero x-mode is multiplied
    pointwise in y by the unimodular phase of the reduced shear.  The output
    lattice is enlarged in l so the oscillatory phase is resolved: per-mode
    mass is conserved to roundoff.
    """
    if t < 0:
        raise FieldError("inviscid evolution requires t >= 0")
    lattice = theta0.lattice
    if t == 0.0 or shear.is_zero():
        return theta0
    reduced, drift = mean_zero_reduce(shear)
    x_shift = drift(t)
    phi = phase_integral(reduced, t)

    active = [
        k
        for k in range(-lattice.kmax, lattice.kmax + 1)
        if k != 0 and np.any(np.abs(theta0.coeff[k + lattice.kmax, :]) > 0.0)
    ]
    if not active and x_shift == 0.0:
        return theta0

    extra = max((_phase_bandwidth(phi, k) for k in active), default=0)
    lmax_out = lattice.lmax + extra
    out_lattice = Lattice(lattice.kmax, lmax_out)
    ny = next_fast_len(2 * (2 * lmax_out + 1))
    y = 2.0 * np.pi * np.arange(ny) / ny
    phi_vals = _phase_values(phi, y)

    coeff = np.zeros(out_lattice.shape, dtype=complex)
    # x-independent modes are stationary
    coeff[out_lattice.kmax, lmax_out - lattice.lmax : lmax_out + lattice.lmax + 1] = theta0.coeff[
        lattice.kmax, :
    ]
    for k in active:
        row = theta0.coeff[k + lattice.kmax, :]
        f_vals = _profile_values(row, lattice.lmax, y)
        mass_in = float(np.sum(np.abs(row) ** 2))
        f_vals = f_vals * np.exp(1j * k * phi_vals) * np.exp(-1j * k * x_shift)
        spec = np.fft.fft(f_vals) / ny
        ls = np.arange(-lmax_out, lmax_out + 1)
        new_row = spec[ls % ny]
        mass_out = float(np.sum(np.abs(new_row) ** 2))
        if mass_in > 0 and abs(mass_out - mass_in) > 1e-8 * mass_in:
            warnings.warn(
                f"mode k={k} lost {abs(mass_out - mass_in) / mass_in:.2e} relative mass; "
                "phase bandwidth estimate may be too small",
                stacklevel=2,
            )
        coeff[k + out_lattice.kmax, :] = new_row
    return SpectralField2D(out_lattice, coeff)


def inviscid_certificate(
    theta0: SpectralField2D,
    shear: ShearSpec,
    safety: float = _DEFAULT_SAFETY,
    oversample: int = 4,
) -> InviscidCertificate:
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
            k=0, S=0.0, A=0.0, B=0.0, D=0.0, c_star=hneg1_norm(theta0), stationary=True, safety=safety
        )

    ny = next_fast_len(oversample * (2 * lattice.lmax + 1))
    y = 2.0 * np.pi * np.arange(ny) / ny
    ls = np.arange(-lattice.lmax, lattice.lmax + 1)
    best: InviscidCertificate | None = None
    for k, mass in candidates:
        row = theta0.coeff[k + lattice.kmax, :]
        f_vals = _profile_values(row, lattice.lmax, y)
        df_vals = _profile_values(1j * ls * row, lattice.lmax, y)
        a_const = float(np.mean(np.abs(df_vals))) * safety
        sup_f = float(np.max(np.abs(f_vals))) * safety
        b_const = abs(k) * shear.w11 * sup_f
        d_const = 1.0 + 8.0 * (a_const**2 + b_const**2) / mass
        c_star = math.sqrt(mass / (2.0 * (k * k + 2.0 * d_const**2)))
        cert = InviscidCertificate(k=k, S=mass, A=a_const, B=b_const, D=d_const, c_star=c_star, safety=safety)
        if (
            best is None
            or cert.c_star > best.c_star
            or (cert.c_star == best.c_star and (abs(cert.k), -cert.k) < (abs(best.k), -best.k))
        ):
            best = cert
    assert best is not None
    return best


def check_inviscid_bound(
    theta0: SpectralField2D,
    shear: ShearSpec,
    cert: InviscidCertificate,
    times: list[float],
    tol: float = 1e-6,
    scenario: str = "",
) -> BoundReport:
    """Verify ||theta(t)||_{H^{-1}} (1+t^2) >= c_star at the sampled times.

    For a non-stationary certificate the report also audits the y-tail
    control: the mass above the window N(t) never exceeds half the conserved
    mode mass.
    """
    states = [(t, evolve_inviscid(theta0, shear, t)) for t in times]
    extras = {}
    if not cert.stationary:
        max_tail_ratio = 0.0
        for t, state in states:
            n_t = cert.tail_cutoff(t)
            row = state.coeff[cert.k + state.lattice.kmax, :]
            lsa = np.abs(state.lattice.l_values())
            tail = float(np.sum(np.abs(row[lsa > n_t]) ** 2))
            max_tail_ratio = max(max_tail_ratio, tail / (cert.S / 2.0))
        extras["max_tail_ratio"] = max_tail_ratio
        extras["tail_ok"] = bool(max_tail_ratio <= 1.0 + 1e-12)
    return make_report(
        scenario,
        "inviscid_hneg1_poly",
        cert.to_json(),
        states,
        lambda t, state: (hneg1_norm(state), math.log(cert.c_star) - math.log1p(t * t)),
        tol,
        extras,
    )
