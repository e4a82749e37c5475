"""Stacked x-mode integrator for diffusive shear transport.

Each x-frequency k obeys the 1D equation d_t f_k + nu (k^2 - d_yy) f_k = -i k U(t,y) f_k.
The scheme is Strang splitting with the exact diffusion semigroup in
coefficient space and a unimodular grid-space advection factor sampled at the
substep midpoint, applied to all active modes at once.  A steady shear's step
is one cached matrix per step size; a time-periodic shear's rows stay on the
padded y-grid for a whole sample segment, one FFT pair and two multiplies a
step, with the advection factors of many steps made by one exp.  A real
datum stays real, so only its rows with k >= 0 are stepped and each k < 0
row is filled as the conjugate of its mirror.  Both structural facts the
lower-bound proofs rely on are preserved exactly: advection never changes a
mode's energy, diffusion damps coefficient (k,l) by precisely
e^{-nu (k^2+l^2) dt}.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .flows import ShearSpec
from .spectral import (
    FieldError,
    Lattice,
    SpectralField2D,
    _y_index,
    grad_l2_sq,
    l2_norm,
    next_fast_len,
    y_grid_coeffs,
    y_grid_values,
)

__all__ = ["FieldTrajectory", "default_dt", "evolve_shear", "dissipation_report", "DissipationReport"]


def default_dt(k: int, M: float) -> float:
    """Step-size cap min(1e-2, 0.1/(|k| M + 1)); shrinks with the advective phase rate."""
    return min(1e-2, 0.1 / (abs(k) * M + 1.0))


@dataclass
class FieldTrajectory:
    """The fields at the sample times as one coefficient stack, and the step grid that produced them.

    ``coeff[i]`` holds the field at ``times[i]`` on ``lattice``: ``coeff`` has
    shape (len(times), 2 kmax + 1, 2 lmax + 1), and ``l2_norm(trajectory)``
    is one norm per sample.  ``diag_times`` holds t = 0 and every internal
    step edge, ``t + (i + 1) h`` for step i of a sample segment; the exact
    inviscid map takes no steps and leaves it empty (``nu`` is 0).  A caller
    that wants fields at every step edge, as the dense energy-identity check
    does, samples there.
    """

    nu: float
    times: np.ndarray
    lattice: Lattice
    coeff: np.ndarray
    diag_times: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def fields(self) -> list[SpectralField2D]:
        """Each sample as a SpectralField2D sharing its row of ``coeff``; edit the stack, not this list."""
        return [SpectralField2D(self.lattice, c) for c in self.coeff]


# Most bytes of steady step matrices a _ShearStepper caches (16 MB): one
# (rows, 2 lmax+1, 2 lmax+1) stack per distinct step size, all dropped when
# the next would not fit, so irregular sample times do not grow the cache.
# A time-periodic shear's advection factors are built in chunks of steps
# held within the same bound.
_MATRIX_BUDGET = 16 << 20


class _ShearStepper:
    """Strang stepper for the x-modes ks stacked as rows; rows with k = 0 or a zero shear only diffuse.

    A steady shear makes an advected row's step one fixed matrix per step
    size, cached within _MATRIX_BUDGET.  A time-periodic shear keeps the
    advected rows on the padded y-grid for a whole segment: each step is a
    grid multiply by its advection factor and an FFT pair around one
    multiply by the squared heat half-factor, which also truncates to
    |l| <= lmax.  Rows that only diffuse are scaled elementwise, and no
    step matrix is built for them.
    """

    def __init__(self, ks, lmax: int, shear: ShearSpec, nu: float):
        if not (nu > 0 and math.isfinite(nu)):
            raise FieldError(
                f"shear-diffusion integrator requires finite nu > 0 (inviscid transport is separate), got {nu}"
            )
        ks = np.asarray(ks, dtype=int)
        self.steady, self.lmax = shear.time_kind == "steady", lmax
        # log of the heat half-factor per unit step: -nu (k^2 + l^2) / 2
        self.half_rate = -0.5 * nu * (ks[:, None] ** 2 + np.arange(-lmax, lmax + 1) ** 2)
        advected = (ks != 0) & (not shear.is_zero())
        self.adv, self.heat = np.flatnonzero(advected), np.flatnonzero(~advected)
        self.phase = -1j * ks[self.adv, None]
        self.ny = next_fast_len(2 * (2 * lmax + 1))
        self.u_at = shear.sampler(2.0 * np.pi * np.arange(self.ny) / self.ny)
        self._matrix_cache: dict[float, np.ndarray] = {}

    def _matrices(self, h: float, half: np.ndarray) -> np.ndarray:
        """Steady step matrices of the advected rows, row adv[i] stepping as c @ mats[i].

        ``half`` is the advected rows' heat half-factor for h.  The grid round
        trip c -> coefficients of (values of c) * e, with e = exp(-i k h U(y))
        the grid advection factor, is the Toeplitz matrix of e's
        coefficients, so a row's matrix is that matrix between its heat
        half-factors.
        """
        mats = self._matrix_cache.get(h)
        if mats is None:
            lmax = self.lmax
            e_hat = y_grid_coeffs(np.exp(self.phase * h * self.u_at(0.5 * h)), 2 * lmax)  # l = -2 lmax..2 lmax
            ls = np.arange(-lmax, lmax + 1)
            toeplitz = ls[None, :] - ls[:, None] + 2 * lmax
            mats = half[:, :, None] * e_hat[:, toeplitz] * half[:, None, :]
            if sum(m.nbytes for m in self._matrix_cache.values()) + mats.nbytes > _MATRIX_BUDGET:
                self._matrix_cache.clear()
            self._matrix_cache[h] = mats
        return mats

    def _factors(self, t: float, h: float, n: int) -> Iterator[np.ndarray]:
        """Grid advection factors exp(-i k h U(t + i h + h/2, y)) of the advected rows, for steps i = 0..n-1.

        One exp makes the factors of a chunk of steps, a (steps, rows, ny)
        block held within _MATRIX_BUDGET; the factors are yielded a step at a
        time.  The midpoints are summed as Python floats, the same values as
        array arithmetic at less cost for the one-step segments of sampling
        every step edge.
        """
        phase = self.phase * h
        chunk = max(1, _MATRIX_BUDGET // (16 * phase.size * self.ny))  # 16 bytes a complex entry
        for start in range(0, n, chunk):
            mids = np.array([t + i * h + 0.5 * h for i in range(start, min(n, start + chunk))])
            block = phase * self.u_at(mids)[:, None, :]
            yield from np.exp(block, out=block)

    def advance(self, coeff: np.ndarray, t: float, h: float, n: int) -> np.ndarray:
        """The state after n steps of size h from t.

        Rows that only diffuse are scaled once by their heat factor to the
        n-th power.  Advected rows of a steady shear take n batched products
        with the step matrices of h.  Those of a time-periodic shear enter
        the y-grid once, with the first heat half-step; each step multiplies
        by its advection factor, and between two steps the values take the
        FFT pair around the squared half-factor ``heat2``, zero outside
        |l| <= lmax.  The last step's forward FFT leaves the grid, and its
        slots take the closing half-step.  The heat half-factor is computed
        once.
        """
        half = np.exp(self.half_rate * h)
        out = np.empty_like(coeff)
        heat, adv = self.heat, self.adv
        if heat.size:
            out[heat] = coeff[heat] * (half[heat] * half[heat]) ** n
        if adv.size and self.steady:
            rows, mats = coeff[adv, None, :], self._matrices(h, half[adv])
            for _ in range(n):
                rows = np.matmul(rows, mats)
            out[adv] = rows[:, 0, :]
        elif adv.size:
            half = half[adv]
            if n > 1:  # heat2 is used only between two steps
                heat2 = np.zeros((adv.size, self.ny), dtype=complex)
                heat2[:, _y_index(self.lmax, self.ny)] = half * half
            factors = self._factors(t, h, n)
            vals = y_grid_values(coeff[adv] * half, self.ny)
            vals *= next(factors)
            for factor in factors:
                np.fft.fft(vals, axis=-1, norm="forward", out=vals)
                vals *= heat2
                np.fft.ifft(vals, axis=-1, norm="forward", out=vals)
                vals *= factor
            out[adv] = y_grid_coeffs(vals, self.lmax) * half
        return out

    def step(self, coeff: np.ndarray, t: float, h: float) -> np.ndarray:
        return self.advance(coeff, t, h, 1)


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


def _march(times, dt_target: float, state, advance) -> tuple[np.ndarray, np.ndarray]:
    """Advance ``state`` from t=0 through the sample times on one shared step grid.

    Each sample segment is one call ``advance(state, t, h, n)``, which
    returns the state after its n steps of size h.  Returns the states at
    the sample times, stacked on a new first axis, and the step grid: t = 0
    and every step edge (a trajectory's ``diag_times``).
    """
    times = _check_times(times)
    state = np.asarray(state)
    samples = np.empty((times.size,) + state.shape, dtype=complex)
    edges = [np.zeros(1)]
    t = 0.0
    for i, t_next in enumerate(times):
        if t_next > t:
            n, h = _segment_steps(t, t_next, dt_target)
            state = advance(state, t, h, n)
            edges.append(t + np.arange(n) * h + h)
            t = t_next
        samples[i] = state
    return samples, np.concatenate(edges)


def evolve_shear(
    rho0: SpectralField2D,
    shear: ShearSpec,
    nu: float,
    times: np.ndarray,
    dt: float | None = None,
) -> FieldTrajectory:
    """Integrate every x-mode of rho0 and stack the fields at the sample times.

    All modes share one step grid (the most restrictive per-mode cap), so
    sample times on that grid give the fields at every step edge.  A real
    datum, exactly conjugate-symmetric (c(-k,-l) = conj c(k,l)), has only
    its active rows with k >= 0 stepped: the solution stays real, so every
    k < 0 row of the stack is the conjugate of its mirror row, filled in
    place.  Any other datum has all its active rows stepped.
    """
    times = _check_times(times)
    lattice = rho0.lattice
    c = rho0.coeff
    rows = np.flatnonzero(np.any(np.abs(c) > 0.0, axis=1))
    active = rows - lattice.kmax
    if dt is None:
        dt = min((default_dt(int(k), shear.M) for k in active), default=1e-2)
    real = _is_real(c)
    if real:
        rows, active = rows[active >= 0], active[active >= 0]
    stepper = _ShearStepper(active, lattice.lmax, shear, nu)
    samples, diag_times = _march(times, dt, c[rows], stepper.advance)
    coeff = np.zeros((times.size,) + lattice.shape, dtype=complex)
    coeff[:, rows] = samples
    if real:
        samples = None  # numpy copies the mirror fill's source rows: free the stepped rows first
        _mirror_rows(coeff, lattice.kmax)
    return FieldTrajectory(nu, times, lattice, coeff, diag_times)


def _is_real(coeff: np.ndarray) -> bool:
    """Whether coefficients are exactly conjugate-symmetric, c(-k,-l) = conj c(k,l), with no tolerance."""
    return np.array_equal(coeff, coeff[::-1, ::-1].conj())


def _mirror_rows(coeff: np.ndarray, kmax: int) -> None:
    """Fill the k < 0 rows of a real field stack in place from its k > 0 rows: c(-k,-l) = conj c(k,l)."""
    np.conjugate(coeff[:, :kmax:-1, ::-1], out=coeff[:, :kmax])


@dataclass(frozen=True)
class DissipationReport:
    """Residuals of the energy identity d/dt (1/2 ||rho||^2) = -nu ||grad rho||^2."""

    max_residual: float
    residuals: np.ndarray
    midpoints: np.ndarray


def dissipation_report(trajectory: FieldTrajectory) -> DissipationReport:
    """Audit the energy identity on the fields at the trajectory's sample times.

    Each interval between samples compares the difference quotient of
    1/2 ||rho||^2 with the trapezoid average of nu ||grad rho||^2, normalized
    by ||rho||^2 at the first sample; the dense check samples every step edge.
    """
    e = l2_norm(trajectory) ** 2
    if not e[0] > 0:
        raise FieldError("dissipation report needs a nonzero initial datum (||rho||^2 = 0 at the first sample)")
    ts = trajectory.times
    if ts.size < 2:
        raise FieldError("dissipation report needs dense time sampling (sample every step edge)")
    g = grad_l2_sq(trajectory)
    h = np.diff(ts)
    rate = 0.5 * np.diff(e) / h
    dissip = trajectory.nu * 0.5 * (g[1:] + g[:-1])
    res = np.abs(rate + dissip) / e[0]
    return DissipationReport(float(np.max(res)), res, 0.5 * (ts[1:] + ts[:-1]))
