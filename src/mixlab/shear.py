"""Stacked x-mode integrator for diffusive shear transport.

Each x-frequency k obeys the 1D equation d_t f_k + nu (k^2 - d_yy) f_k = -i k U(t,y) f_k.
The scheme is Strang splitting with the exact diffusion semigroup in
coefficient space and a unimodular grid-space advection factor sampled at the
substep midpoint, applied to all active modes at once.  Both structural facts
the lower-bound proofs rely on are preserved exactly: advection never changes
a mode's energy, diffusion damps coefficient (k,l) by precisely e^{-nu (k^2+l^2) dt}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .flows import ShearSpec
from .spectral import FieldError, SpectralField2D, y_grid_coeffs, y_grid_values

__all__ = ["FieldTrajectory", "default_dt", "evolve_shear", "dissipation_report", "DissipationReport"]


def default_dt(k: int, M: float) -> float:
    """Step-size cap min(1e-2, 0.1/(|k| M + 1)); shrinks with the advective phase rate."""
    return min(1e-2, 0.1 / (abs(k) * M + 1.0))


@dataclass
class FieldTrajectory:
    """Reassembled fields at sample times plus per-step energy diagnostics.

    ``diag_times`` holds every internal step edge, ``t + (i + 1) h`` for step
    i of a sample segment, also where a segment was advanced in blocks;
    ``diag_energy`` and ``diag_grad`` are ||rho||_2^2 and ||grad rho||_2^2
    there, dense enough to audit the energy identity.  The exact inviscid map
    takes no steps and leaves them empty (``nu`` is 0).
    """

    nu: float
    times: np.ndarray
    fields: list[SpectralField2D]
    diag_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diag_energy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diag_grad: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def l2_series(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(f.coeff)) for f in self.fields])


# Most complex values one block of step-edge states holds (1 MB): a steady
# segment is advanced in blocks of steps that fit, each computed from the one
# before, so memory does not grow with the step count.
_BLOCK_BUDGET = 1 << 16

# Modelled cost of a steady segment's pieces, in complex multiply-adds of a
# matrix product, for r advected rows of width w = 2 lmax+1: a numpy call
# costs _CALL_MACS, a step a call and 2 r w^2, a product of a block of s
# states a call and (6 + s) r w^2 (each call packs the matrix), a squaring a
# call and r w^3.  Fitted on a 2-core x86 VM; it only picks blocks or steps.
_CALL_MACS = 48_000


def _stepwise(step, diag):
    """Segment advance that takes the steps one at a time, for a step that depends on t.

    ``step(state, t, h)`` advances one step and ``diag(state)`` gives
    (||rho||^2, ||grad rho||^2); the result ``advance(state, t, h, n)``
    returns the last state and both series at the n step edges.
    """

    def advance(state, t: float, h: float, n: int):
        energy, grad = np.empty(n), np.empty(n)
        for i in range(n):
            state = step(state, t + i * h, h)
            energy[i], grad[i] = diag(state)
        return state, energy, grad

    return advance


class _ShearStepper:
    """Strang stepper for the x-modes ks stacked as rows; rows with k = 0 or a zero shear only diffuse.

    A steady (or zero) shear makes an advected row's step one fixed matrix
    per step size, and ``advance`` fills a segment's step-edge states in
    blocks.  A time-periodic shear steps one FFT pair at a time.  Rows that
    only diffuse are always scaled elementwise.
    """

    def __init__(self, ks, lmax: int, shear: ShearSpec, nu: float):
        if not (nu > 0 and math.isfinite(nu)):
            raise FieldError(
                f"shear-diffusion integrator requires finite nu > 0 (inviscid transport is separate), got {nu}"
            )
        ks = np.asarray(ks, dtype=int)
        self.nu, self.steady, self.lmax = nu, shear.time_kind == "steady", lmax
        self.weight = ks[:, None] ** 2 + np.arange(-lmax, lmax + 1) ** 2
        advected = (ks != 0) & (not shear.is_zero())
        self.adv, self.heat = np.flatnonzero(advected), np.flatnonzero(~advected)
        self.phase = -1j * ks[self.adv, None]
        self.ny = next_fast_len(2 * (2 * lmax + 1))
        self.grid = np.empty((self.adv.size, self.ny), dtype=complex) if not self.steady else None
        self.u_at = shear.sampler(2.0 * np.pi * np.arange(self.ny) / self.ny)
        self._factor_cache: dict[float, tuple] = {}
        self._matrix_cache: dict[float, np.ndarray] = {}

    def _advection(self, phase: np.ndarray, t: float, h: float) -> np.ndarray:
        """Grid factor exp(-i k U(t + h/2, y) h) of the advected rows; ``phase`` is -i k h per row."""
        return np.exp(phase * self.u_at(t + 0.5 * h))

    def _factors(self, h: float) -> tuple:
        """Full-step heat factor of every row, half-step factor of the advected rows, and their -i k h."""
        got = self._factor_cache.get(h)
        if got is None:
            half = np.exp(-0.5 * self.nu * self.weight * h)
            got = self._factor_cache[h] = (half * half, half[self.adv], self.phase * h)
        return got

    def _matrices(self, h: float) -> np.ndarray:
        """Steady step matrices of the advected rows, row adv[i] stepping as c @ mats[i].

        The grid round trip c -> coefficients of (values of c) * e is the
        Toeplitz matrix of e's coefficients, so a row's matrix is that
        matrix between its heat half-factors.
        """
        mats = self._matrix_cache.get(h)
        if mats is None:
            _, half, phase = self._factors(h)
            lmax = self.lmax
            e_hat = y_grid_coeffs(self._advection(phase, 0.0, h), 2 * lmax)  # l = -2 lmax..2 lmax
            ls = np.arange(-lmax, lmax + 1)
            toeplitz = ls[None, :] - ls[:, None] + 2 * lmax
            mats = self._matrix_cache[h] = half[:, :, None] * e_hat[:, toeplitz] * half[:, None, :]
        return mats

    def step(self, coeff: np.ndarray, t: float, h: float) -> np.ndarray:
        heat, half, phase = self._factors(h)
        out = coeff * heat
        if self.adv.size and self.steady:
            out[self.adv] = np.matmul(coeff[self.adv, None, :], self._matrices(h))[:, 0, :]
        elif self.adv.size:
            vals = y_grid_values(coeff[self.adv] * half, self.ny, out=self.grid)
            vals *= self._advection(phase, t, h)
            out[self.adv] = y_grid_coeffs(vals, self.lmax) * half
        return out

    def diag(self, coeff: np.ndarray) -> tuple[float, float]:
        """(||rho||^2, ||grad rho||^2) of the stacked modes."""
        return float(np.vdot(coeff, coeff).real), float(np.vdot(coeff, self.weight * coeff).real)

    def _block_steps(self, n: int) -> int:
        """Steps per block of a steady segment of n steps: 1 (the step loop) or a power of two >= 4.

        The pick has the least modelled cost (see _CALL_MACS) within
        _BLOCK_BUDGET.  Blocks of 2^L steps cost L squarings, so a wide
        lattice, where a squaring is dear, or a short segment steps.
        """
        rows, width = self.adv.size, self.weight.shape[1]
        vec = rows * width**2
        fits = min(n, _BLOCK_BUDGET // max(1, self.weight.size))
        best, least = 1, n * (_CALL_MACS + 2 * vec)
        for levels in range(2, fits.bit_length()):
            size = 1 << levels
            cost = levels * (_CALL_MACS + rows * width**3) + -(-n // size) * (_CALL_MACS + 6 * vec) + n * vec
            if cost < least:
                best, least = size, cost
        return best

    def advance(self, coeff: np.ndarray, t: float, h: float, n: int):
        """The state after n steps of size h from t, with both diagnostics at the n step edges.

        A steady segment runs in blocks of B = ``_block_steps(n)`` states.
        The first block of an advected row fills by doubling, c[m+1..2m] =
        c[1..m] @ M^m with M^m by squaring; each later block is the one
        before times M^B.  A row that only diffuses takes its heat factor to
        the power of the step index.  Each block gives both diagnostics by
        two reductions.  With B = 1, and for a time-periodic shear, the steps
        are taken one at a time.
        """
        size = self._block_steps(n) if self.steady else 1
        if size == 1:
            return _stepwise(self.step, self.diag)(coeff, t, h, n)
        heat, adv = self.heat, self.adv
        factor = self._factors(h)[0][heat, None, :]
        powers = [self._matrices(h)] if adv.size else []  # powers[i] = M^(2^i)
        while adv.size and 1 << (len(powers) - 1) < size:
            powers.append(np.matmul(powers[-1], powers[-1]))
        energy, grad = np.zeros(n), np.zeros(n)
        initial, advected = coeff[heat, None, :], coeff[adv, None, :]
        for start in range(0, n, size):
            take = min(size, n - start)
            series = energy[start : start + take], grad[start : start + take]
            if heat.size:
                diffused = initial * factor ** np.arange(start + 1, start + take + 1)[:, None]
                _add_diag(diffused, self.weight[heat], *series)
            if adv.size:
                if start == 0:
                    first = np.empty((adv.size, size, coeff.shape[1]), dtype=complex)
                    first[:, :1] = np.matmul(advected, powers[0])
                    for level in range(len(powers) - 1):
                        first[:, 1 << level : 2 << level] = np.matmul(first[:, : 1 << level], powers[level])
                    advected = first
                else:
                    advected = np.matmul(advected[:, :take], powers[-1])
                _add_diag(advected, self.weight[adv], *series)
        out = np.empty_like(coeff)
        if heat.size:
            out[heat] = diffused[:, -1]
        out[adv] = advected[:, -1]
        return out, energy, grad


def _add_diag(states: np.ndarray, weight: np.ndarray, energy: np.ndarray, grad: np.ndarray) -> None:
    """Add ||c||^2 and its l-weighted sum per step of a (rows, steps, l) block into energy and grad."""
    power = states.real**2 + states.imag**2
    energy += power.sum(axis=(0, 2))
    grad += np.einsum("rsl,rl->s", power, weight)


def _check_times(times) -> np.ndarray:
    """Sample times as an array; they must be nonempty, finite, increasing and start at t >= 0."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times)) or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise FieldError("times must be a nonempty finite increasing list with times[0] >= 0")
    return times


def _segment_steps(t0: float, t1: float, dt_target: float) -> tuple[int, float]:
    """Number and size of equal steps covering [t0, t1] with steps at most dt_target."""
    if not (dt_target > 0 and math.isfinite(dt_target)):
        raise FieldError(f"step size must be positive and finite, got {dt_target}")
    span = t1 - t0
    n = max(1, int(np.ceil(span / dt_target - 1e-12)))
    return n, span / n


def _march(nu: float, times, dt_target: float, state, advance, diag, snapshot) -> FieldTrajectory:
    """Advance ``state`` from t=0 through the sample times on one shared step grid.

    Each sample segment is one call ``advance(state, t, h, n)``, which
    returns the state after its n steps of size h and the arrays of
    (||rho||^2, ||grad rho||^2) at the n step edges (``_stepwise`` builds
    one from a single-step function).  ``diag(state)`` gives the pair at
    t = 0 and ``snapshot(state)`` the field stored at each sample time.
    """
    times = _check_times(times)
    energy, grad = diag(state)
    diag_times, diag_energy, diag_grad = [np.zeros(1)], [np.array([energy])], [np.array([grad])]
    fields: list[SpectralField2D] = []
    t = 0.0
    for t_next in times:
        if t_next > t:
            n, h = _segment_steps(t, t_next, dt_target)
            state, energy, grad = advance(state, t, h, n)
            diag_times.append(t + np.arange(n) * h + h)
            diag_energy.append(energy)
            diag_grad.append(grad)
            t = t_next
        fields.append(snapshot(state))
    return FieldTrajectory(
        nu,
        times,
        fields,
        np.concatenate(diag_times),
        np.concatenate(diag_energy),
        np.concatenate(diag_grad),
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

    return _march(nu, times, dt, rho0.coeff[rows], stepper.advance, stepper.diag, snapshot)


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
