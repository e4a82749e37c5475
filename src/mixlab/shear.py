"""Per-x-mode integrator for diffusive shear transport.

Each x-frequency k obeys the 1D equation
d_t f_k + nu (k^2 - d_yy) f_k = -i k U(t,y) f_k.
The scheme is Strang splitting with the exact diffusion semigroup in
coefficient space and a unimodular grid-space advection factor sampled at the
substep midpoint.  Both structural facts the lower-bound proofs rely on are
preserved exactly: advection never changes a mode's energy, diffusion damps
coefficient (k,l) by precisely e^{-nu (k^2+l^2) dt}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .flows import ShearSpec
from .spectral import FieldError, ModeProfile, SpectralField2D

__all__ = [
    "ModeTrajectory",
    "FieldTrajectory",
    "default_dt",
    "step_mode",
    "evolve_mode",
    "evolve_shear",
    "dissipation_report",
    "DissipationReport",
]


def default_dt(k: int, M: float) -> float:
    """Step-size cap min(1e-2, 0.1/(|k| M + 1)); shrinks with the advective phase rate."""
    return min(1e-2, 0.1 / (abs(k) * M + 1.0))


@dataclass(frozen=True)
class ModeTrajectory:
    """One x-mode's profiles and energies at sample times; energies never increase."""

    k: int
    nu: float
    times: np.ndarray
    profiles: list[ModeProfile]
    energies: np.ndarray

    def initial_energy(self) -> float:
        return float(self.energies[0])


@dataclass
class FieldTrajectory:
    """Reassembled fields at sample times plus per-step energy diagnostics.

    ``diag_times`` holds every internal step edge; ``diag_energy`` and
    ``diag_grad`` are ||rho||_2^2 and ||grad rho||_2^2 there, dense enough to
    audit the energy identity.
    """

    nu: float
    times: np.ndarray
    fields: list[SpectralField2D]
    diag_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diag_energy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diag_grad: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def l2_series(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(f.coeff)) for f in self.fields])


class _ModeStepper:
    """Strang stepper for one mode k at fixed lattice resolution."""

    def __init__(self, k: int, lmax: int, shear: ShearSpec, nu: float):
        if nu <= 0:
            raise FieldError("shear-diffusion integrator requires nu > 0 (inviscid transport is separate)")
        self.k = k
        self.lmax = lmax
        self.shear = shear
        self.nu = nu
        self.ls = np.arange(-lmax, lmax + 1)
        self.ny = next_fast_len(2 * (2 * lmax + 1))
        self.y = 2.0 * np.pi * np.arange(self.ny) / self.ny
        self.advect = not shear.is_zero() and k != 0
        self._dt = None
        self._diff_half = None

    def _factors(self, dt: float) -> np.ndarray:
        if dt != self._dt:
            self._dt = dt
            self._diff_half = np.exp(-0.5 * self.nu * (self.k**2 + self.ls**2) * dt)
        return self._diff_half

    def step(self, coeff: np.ndarray, t: float, dt: float) -> np.ndarray:
        half = self._factors(dt)
        out = coeff * half
        if self.advect:
            u_mid = self.shear.sample(t + 0.5 * dt, self.y)
            spec = np.zeros(self.ny, dtype=complex)
            spec[self.ls % self.ny] = out
            vals = np.fft.ifft(spec) * self.ny
            vals *= np.exp(-1j * self.k * u_mid * dt)
            spec = np.fft.fft(vals) / self.ny
            out = spec[self.ls % self.ny]
        return out * half

    def energy(self, coeff: np.ndarray) -> float:
        return float(np.sum(np.abs(coeff) ** 2))

    def grad_sq(self, coeff: np.ndarray) -> float:
        return float(np.sum((self.k**2 + self.ls**2) * np.abs(coeff) ** 2))


def step_mode(profile: ModeProfile, shear: ShearSpec, nu: float, t: float, dt: float) -> ModeProfile:
    """One Strang step of the mode equation from time t to t + dt."""
    if dt <= 0:
        raise FieldError("dt must be positive")
    stepper = _ModeStepper(profile.k, profile.lmax, shear, nu)
    return ModeProfile(profile.k, profile.lmax, stepper.step(profile.coeff, t, dt))


def _check_times(times) -> np.ndarray:
    """Sample times as an array; they must be nonempty, increasing and start at t >= 0."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise FieldError("times must be a nonempty increasing list with times[0] >= 0")
    return times


def _segment_steps(t0: float, t1: float, dt_target: float) -> tuple[int, float]:
    """Number and size of equal steps covering [t0, t1] with steps at most dt_target."""
    if not dt_target > 0:
        raise FieldError(f"step size must be positive, got {dt_target}")
    span = t1 - t0
    n = max(1, int(np.ceil(span / dt_target - 1e-12)))
    return n, span / n


def evolve_mode(
    profile: ModeProfile,
    shear: ShearSpec,
    nu: float,
    times: np.ndarray,
    dt: float | None = None,
) -> ModeTrajectory:
    """Integrate one mode from t=0 through the increasing sample times."""
    times = _check_times(times)
    dt_target = default_dt(profile.k, shear.M) if dt is None else dt
    stepper = _ModeStepper(profile.k, profile.lmax, shear, nu)
    coeff = profile.coeff.copy()
    t = 0.0
    profiles: list[ModeProfile] = []
    energies: list[float] = []
    for t_next in times:
        if t_next > t:
            n, h = _segment_steps(t, t_next, dt_target)
            for i in range(n):
                coeff = stepper.step(coeff, t + i * h, h)
            t = t_next
        profiles.append(ModeProfile(profile.k, profile.lmax, coeff.copy()))
        energies.append(stepper.energy(coeff))
    return ModeTrajectory(profile.k, nu, times, profiles, np.array(energies))


def evolve_shear(
    rho0: SpectralField2D,
    shear: ShearSpec,
    nu: float,
    times: np.ndarray,
    dt: float | None = None,
) -> FieldTrajectory:
    """Integrate every x-mode of rho0 and reassemble fields at the sample times.

    All modes share one step grid (the most restrictive per-mode cap) so the
    step-edge diagnostics form a single dense series for the energy identity.
    """
    times = _check_times(times)
    lattice = rho0.lattice
    ks = [k for k in range(-lattice.kmax, lattice.kmax + 1)]
    active = [k for k in ks if np.any(np.abs(rho0.coeff[k + lattice.kmax, :]) > 0.0)]
    if dt is None:
        dt = min((default_dt(k, shear.M) for k in active), default=1e-2)

    steppers = {k: _ModeStepper(k, lattice.lmax, shear, nu) for k in active}
    coeffs = {k: rho0.coeff[k + lattice.kmax, :].copy() for k in active}

    diag_times = [0.0]
    diag_energy = [sum(s.energy(coeffs[k]) for k, s in steppers.items())]
    diag_grad = [sum(s.grad_sq(coeffs[k]) for k, s in steppers.items())]

    fields: list[SpectralField2D] = []
    t = 0.0

    def snapshot() -> SpectralField2D:
        coeff = np.zeros(lattice.shape, dtype=complex)
        for k in active:
            coeff[k + lattice.kmax, :] = coeffs[k]
        return SpectralField2D(lattice, coeff)

    for t_next in times:
        if t_next > t:
            n, h = _segment_steps(t, t_next, dt)
            for i in range(n):
                t_step = t + i * h
                for k in active:
                    coeffs[k] = steppers[k].step(coeffs[k], t_step, h)
                diag_times.append(t_step + h)
                diag_energy.append(sum(steppers[k].energy(coeffs[k]) for k in active))
                diag_grad.append(sum(steppers[k].grad_sq(coeffs[k]) for k in active))
            t = t_next
        fields.append(snapshot())
    return FieldTrajectory(
        nu,
        times,
        fields,
        np.array(diag_times),
        np.array(diag_energy),
        np.array(diag_grad),
    )


@dataclass(frozen=True)
class DissipationReport:
    """Residuals of the energy identity d/dt (1/2 ||rho||^2) = -nu ||grad rho||^2."""

    max_residual: float
    residuals: np.ndarray
    midpoints: np.ndarray

    def to_json(self) -> dict:
        return {"max_residual": self.max_residual, "n_intervals": int(self.residuals.size)}


def dissipation_report(trajectory: FieldTrajectory) -> DissipationReport:
    """Audit the energy identity on the dense step-edge diagnostics.

    Each interval compares the centred difference of 1/2 ||rho||^2 with the
    trapezoid average of nu ||grad rho||^2, normalized by ||rho0||^2.
    """
    ts = trajectory.diag_times
    if ts.size < 2:
        raise FieldError("dissipation report needs dense time sampling (run evolve_shear)")
    e = trajectory.diag_energy
    g = trajectory.diag_grad
    h = np.diff(ts)
    rate = 0.5 * np.diff(e) / h
    dissip = trajectory.nu * 0.5 * (g[1:] + g[:-1])
    res = np.abs(rate + dissip) / e[0]
    return DissipationReport(float(np.max(res)), res, 0.5 * (ts[1:] + ts[:-1]))
