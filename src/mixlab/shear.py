"""Stacked x-mode integrator for diffusive shear transport.

Each x-frequency k obeys the 1D equation d_t f_k + nu (k^2 - d_yy) f_k = -i k U(t,y) f_k.
The scheme is Strang splitting with the exact diffusion semigroup in
coefficient space and a unimodular grid-space advection factor sampled at the
substep midpoint, applied to all active modes at once.  Both structural facts
the lower-bound proofs rely on are preserved exactly: advection never changes
a mode's energy, diffusion damps coefficient (k,l) by precisely e^{-nu (k^2+l^2) dt}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .flows import ShearSpec
from .spectral import FieldError, ModeProfile, SpectralField2D, y_grid_coeffs, y_grid_values

__all__ = ["FieldTrajectory", "default_dt", "step_mode", "evolve_shear", "dissipation_report",
           "DissipationReport"]


def default_dt(k: int, M: float) -> float:
    """Step-size cap min(1e-2, 0.1/(|k| M + 1)); shrinks with the advective phase rate."""
    return min(1e-2, 0.1 / (abs(k) * M + 1.0))


@dataclass
class FieldTrajectory:
    """Reassembled fields at sample times plus per-step energy diagnostics.

    ``diag_times`` holds every internal step edge; ``diag_energy`` and
    ``diag_grad`` are ||rho||_2^2 and ||grad rho||_2^2 there, dense enough to
    audit the energy identity.  The exact inviscid map takes no steps and
    leaves them empty (``nu`` is 0).
    """

    nu: float
    times: np.ndarray
    fields: list[SpectralField2D]
    diag_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diag_energy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diag_grad: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def l2_series(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(f.coeff)) for f in self.fields])


class _ShearStepper:
    """Strang stepper for the x-modes ks stacked as rows; rows with k = 0 or a zero shear only diffuse.

    A steady shear makes the step a fixed matrix per mode, built once per step
    size by stepping the identity; otherwise each step runs one FFT pair.
    """

    def __init__(self, ks, lmax: int, shear: ShearSpec, nu: float):
        if nu <= 0:
            raise FieldError("shear-diffusion integrator requires nu > 0 (inviscid transport is separate)")
        ks = np.asarray(ks, dtype=int)
        ls = np.arange(-lmax, lmax + 1)
        self.nu, self.steady = nu, shear.time_kind == "steady"
        self.weight = ks[:, None] ** 2 + ls**2
        self.adv = np.flatnonzero(ks != 0) if not shear.is_zero() else np.zeros(0, dtype=int)
        self.k_adv = ks[self.adv, None]
        self.lmax = lmax
        self.ny = next_fast_len(2 * (2 * lmax + 1))
        self.u_at = shear.sampler(2.0 * np.pi * np.arange(self.ny) / self.ny)
        self._cache: dict[float, tuple] = {}

    def _strang(self, coeff: np.ndarray, half: np.ndarray, t: float, h: float) -> np.ndarray:
        """Step the advected rows (the last two axes of ``coeff``) from t to t + h."""
        vals = y_grid_values(coeff * half, self.ny)
        vals *= np.exp(-1j * self.k_adv * self.u_at(t + 0.5 * h) * h)
        return y_grid_coeffs(vals, self.lmax) * half

    def _factors(self, h: float) -> tuple:
        """Half-step heat factors and, for a steady shear, step matrices: row adv[i] steps as c @ mats[i]."""
        got = self._cache.get(h)
        if got is None:
            half = np.exp(-0.5 * self.nu * self.weight * h)
            mats = None
            if self.steady and self.adv.size:
                eye = np.eye(half.shape[1])[:, None, :]
                mats = np.ascontiguousarray(self._strang(eye, half[self.adv], 0.0, h).transpose(1, 0, 2))
            got = self._cache[h] = (half, mats)
        return got

    def step(self, coeff: np.ndarray, t: float, h: float) -> np.ndarray:
        half, mats = self._factors(h)
        out = coeff * half * half
        if mats is not None:
            out[self.adv] = np.matmul(coeff[self.adv, None, :], mats)[:, 0, :]
        elif self.adv.size:
            out[self.adv] = self._strang(coeff[self.adv], half[self.adv], t, h)
        return out

    def diag(self, coeff: np.ndarray) -> tuple[float, float]:
        """(||rho||^2, ||grad rho||^2) of the stacked modes."""
        return float(np.vdot(coeff, coeff).real), float(np.vdot(coeff, self.weight * coeff).real)


def step_mode(profile: ModeProfile, shear: ShearSpec, nu: float, t: float, dt: float) -> ModeProfile:
    """One Strang step of the mode equation from time t to t + dt."""
    if dt <= 0:
        raise FieldError("dt must be positive")
    stepper = _ShearStepper([profile.k], profile.lmax, shear, nu)
    return ModeProfile(profile.k, profile.lmax, stepper.step(profile.coeff[None, :], t, dt)[0])


def _check_times(times) -> np.ndarray:
    """Sample times as an array; they must be nonempty, finite, increasing and start at t >= 0."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times)) or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise FieldError("times must be a nonempty finite increasing list with times[0] >= 0")
    return times


def _segment_steps(t0: float, t1: float, dt_target: float) -> tuple[int, float]:
    """Number and size of equal steps covering [t0, t1] with steps at most dt_target."""
    if not dt_target > 0:
        raise FieldError(f"step size must be positive, got {dt_target}")
    span = t1 - t0
    n = max(1, int(np.ceil(span / dt_target - 1e-12)))
    return n, span / n


def _march(nu: float, times, dt_target: float, state, step, diag, snapshot) -> FieldTrajectory:
    """Step ``state`` from t=0 through the sample times on one shared grid.

    ``step(state, t, h)`` advances one step, ``diag(state)`` gives
    (||rho||^2, ||grad rho||^2) for the step-edge series and ``snapshot(state)``
    the field stored at each sample time.
    """
    times = _check_times(times)
    diag_times = [0.0]
    energy, grad = diag(state)
    diag_energy = [energy]
    diag_grad = [grad]
    fields: list[SpectralField2D] = []
    t = 0.0
    for t_next in times:
        if t_next > t:
            n, h = _segment_steps(t, t_next, dt_target)
            for i in range(n):
                t_step = t + i * h
                state = step(state, t_step, h)
                energy, grad = diag(state)
                diag_times.append(t_step + h)
                diag_energy.append(energy)
                diag_grad.append(grad)
            t = t_next
        fields.append(snapshot(state))
    return FieldTrajectory(
        nu,
        times,
        fields,
        np.array(diag_times),
        np.array(diag_energy),
        np.array(diag_grad),
    )


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
    lattice = rho0.lattice
    rows = np.flatnonzero(np.any(np.abs(rho0.coeff) > 0.0, axis=1))
    active = rows - lattice.kmax
    if dt is None:
        dt = min((default_dt(int(k), shear.M) for k in active), default=1e-2)
    stepper = _ShearStepper(active, lattice.lmax, shear, nu)

    def snapshot(coeffs: np.ndarray) -> SpectralField2D:
        coeff = np.zeros(lattice.shape, dtype=complex)
        coeff[rows] = coeffs
        return SpectralField2D(lattice, coeff)

    return _march(nu, times, dt, rho0.coeff[rows], stepper.step, stepper.diag, snapshot)


@dataclass(frozen=True)
class DissipationReport:
    """Residuals of the energy identity d/dt (1/2 ||rho||^2) = -nu ||grad rho||^2."""

    max_residual: float
    residuals: np.ndarray
    midpoints: np.ndarray


def dissipation_report(trajectory: FieldTrajectory) -> DissipationReport:
    """Audit the energy identity on the dense step-edge diagnostics.

    Each interval compares the centred difference of 1/2 ||rho||^2 with the
    trapezoid average of nu ||grad rho||^2, normalized by ||rho0||^2.
    """
    ts = trajectory.diag_times
    if ts.size < 2:
        raise FieldError("dissipation report needs dense time sampling (run evolve_shear)")
    e = trajectory.diag_energy
    if not e[0] > 0:
        raise FieldError("dissipation report needs a nonzero initial datum (||rho0||^2 = 0)")
    g = trajectory.diag_grad
    h = np.diff(ts)
    rate = 0.5 * np.diff(e) / h
    dissip = trajectory.nu * 0.5 * (g[1:] + g[:-1])
    res = np.abs(rate + dissip) / e[0]
    return DissipationReport(float(np.max(res)), res, 0.5 * (ts[1:] + ts[:-1]))
