import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

from mixlab.averaging import evolve_2d
from mixlab.certificates import c2_certificate, sharpness_family
from mixlab.flows import FlowSpec, ShearSpec, ShearTerm, _time_factor, preset_shear
from mixlab.harness import Scenario
from mixlab import shear as shear_module
from mixlab.shear import (
    FieldTrajectory,
    _march,
    _ShearStepper,
    default_dt,
    dissipation_report,
    evolve_shear,
)
from mixlab.spectral import (
    FieldError,
    HarmonicTerm,
    Lattice,
    ModeProfile,
    SpectralField2D,
    field_from_terms,
    l2_norm,
    x_mode,
    zeros,
)

ROOT = Path(__file__).resolve().parent.parent
SIN_Y = preset_shear("couette")
ZERO = preset_shear("zero")
TIME_SIN_Y = ShearSpec((ShearTerm(1.0, 1, "sin", "cos"),), period=1.0)


def one_row(rho0, k):
    """rho0 with every x-mode but k zeroed, so evolve_shear steps mode k alone."""
    coeff = np.zeros_like(rho0.coeff)
    coeff[k + rho0.lattice.kmax] = rho0.coeff[k + rho0.lattice.kmax]
    return SpectralField2D(rho0.lattice, coeff)


def profile(k=1, lmax=8, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * lmax + 1) + 1j * rng.standard_normal(2 * lmax + 1)
    return ModeProfile(k, lmax, c)


def step(p: ModeProfile, shear, nu: float, dt: float) -> np.ndarray:
    """The coefficients of p after one Strang step from t = 0, by the stepper evolve_shear uses."""
    return _ShearStepper([p.k], p.lmax, shear, nu).step(p.coeff[None, :], 0.0, dt)[0]


class TestStepMode:
    def test_pure_heat_factor_is_exact(self):
        nu, dt = 0.1, 0.01
        p = profile(k=2)
        out = step(p, ZERO, nu, dt)
        ls = p.l_values()
        want = p.coeff * np.exp(-nu * (4 + ls**2) * dt)
        assert np.max(np.abs(out - want)) <= 1e-15

    def test_constant_shear_is_rigid_phase(self):
        nu, dt, c = 0.2, 0.02, 0.7
        sh = ShearSpec((ShearTerm(c, 0),))
        p = profile(k=3)
        out = step(p, sh, nu, dt)
        heat = step(p, ZERO, nu, dt)
        assert np.allclose(np.abs(out), np.abs(heat), atol=1e-14)
        assert np.allclose(out, heat * np.exp(-1j * 3 * c * dt), atol=1e-14)

    def test_richardson_self_oracle(self):
        # default step vs dt/16 at 4x the vertical modes, t = 1
        nu, k = 0.1, 1
        coarse0 = field_from_terms(Lattice(1, 16), [HarmonicTerm(1.0, 1, 0)])
        fine0 = field_from_terms(Lattice(1, 64), [HarmonicTerm(1.0, 1, 0)])
        dt = default_dt(k, SIN_Y.M)
        coarse = evolve_shear(one_row(coarse0, 1), SIN_Y, nu, np.array([1.0]), dt=dt)
        fine = evolve_shear(one_row(fine0, 1), SIN_Y, nu, np.array([1.0]), dt=dt / 16)
        c, f = x_mode(coarse.fields[-1], 1).coeff, x_mode(fine.fields[-1], 1).coeff
        diff = np.linalg.norm(c - f[64 - 16 : 64 + 17])
        assert diff <= 1e-6 * np.linalg.norm(f)

    def test_rejects_zero_viscosity(self):
        with pytest.raises(FieldError):
            step(profile(), SIN_Y, 0.0, 0.01)

    @pytest.mark.parametrize("nu", [-0.1, float("nan"), float("inf")])
    def test_rejects_nonfinite_or_negative_viscosity(self, nu):
        with pytest.raises(FieldError, match="finite nu > 0"):
            step(profile(), SIN_Y, nu, 0.01)
        rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 1, 0)])
        with pytest.raises(FieldError, match="finite nu > 0"):
            evolve_shear(rho0, SIN_Y, nu, np.array([0.5]))


class TestEvolveShear:
    def test_k0_mode_sees_no_advection(self):
        rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 1)])
        nu = 0.1
        traj = evolve_shear(rho0, SIN_Y, nu, np.array([0.5, 1.0, 2.0]))
        for t, f in zip(traj.times, traj.fields):
            assert l2_norm(f) == pytest.approx(math.exp(-nu * t) / math.sqrt(2), rel=1e-12)

    def test_sharpness_mode_exact_heat_rate(self):
        nu = 0.1
        n = math.ceil(1 / nu)
        rho0 = field_from_terms(Lattice(1, n + 1), [HarmonicTerm(1.0, 0, n)])
        traj = evolve_shear(rho0, ZERO, nu, np.array([0.3, 0.7]))
        for t, f in zip(traj.times, traj.fields):
            assert l2_norm(f) == pytest.approx(math.exp(-nu * n * n * t) / math.sqrt(2), rel=1e-11)

    def test_fitted_rate_inside_certificate_window(self):
        nu = 0.1
        rho0 = field_from_terms(Lattice(2, 16), [HarmonicTerm(1.0, 1, 0)])
        cert = c2_certificate(rho0, SIN_Y.M, nu)
        traj = evolve_shear(rho0, SIN_Y, nu, np.linspace(0.0, 10.0, 21))
        l2s = l2_norm(traj)
        rate = -(math.log(l2s[-1]) - math.log(l2s[0])) / 10.0
        assert nu <= rate <= cert.c2

    def test_mode_energy_monotone_and_enveloped(self):
        nu = 0.15
        rho0 = field_from_terms(
            Lattice(2, 12), [HarmonicTerm(1.0, 1, 1), HarmonicTerm(0.4, 2, 0, "sin")]
        )
        for k in (1, 2):
            tr = evolve_shear(one_row(rho0, k), SIN_Y, nu, np.linspace(0.0, 2.0, 41))
            e = np.array([np.sum(np.abs(x_mode(f, k).coeff) ** 2) for f in tr.fields])
            assert np.all(np.diff(e) <= 1e-10 * e[0])
            envelope = e[0] * np.exp(-2 * nu * k * k * tr.times) * (1 + 1e-8)
            assert np.all(e <= envelope)

    def test_global_sandwich(self):
        nu = 0.1
        rho0 = field_from_terms(Lattice(2, 16), [HarmonicTerm(1.0, 1, 0)])
        cert = c2_certificate(rho0, SIN_Y.M, nu)
        traj = evolve_shear(rho0, SIN_Y, nu, np.linspace(0.0, 5.0, 26), dt=5e-3)
        n0 = l2_norm(rho0)
        for t, f in zip(traj.times, traj.fields):
            v = l2_norm(f)
            assert v <= n0 * math.exp(-nu * t) * (1 + 1e-8)
            # margin check in log space: log v + c2 t >= log n0 - 1e-6
            assert math.log(v) + cert.c2 * t >= math.log(n0) - 1e-6

    @pytest.mark.parametrize("terms", [[(1.0, 0, 3)], [(1.0, 0, 3), (0.5, 1, 2)]], ids=["k0_only", "with_k1"])
    def test_k0_row_is_exact_heat_under_shear(self, terms):
        """The k = 0 row takes the heat factor alone, with no FFT round trip, even beside advected rows.

        Compared with exp(-nu l^2 t) up to t = 0.25: each step multiplies by two
        rounded half-step factors, so longer horizons drift by about 2e-16 a step.
        """
        nu = 0.1
        rho0 = field_from_terms(Lattice(2, 6), [HarmonicTerm(a, kx, ky) for a, kx, ky in terms])
        traj = evolve_shear(rho0, SIN_Y, nu, np.array([0.05, 0.1, 0.25]))
        row0 = rho0.coeff[2]
        for t, f in zip(traj.times, traj.fields):
            want = np.exp(-nu * rho0.lattice.l_values() ** 2 * t) * row0
            assert np.max(np.abs(f.coeff[2] - want)) <= 1e-15 * np.max(np.abs(want))
            assert np.all(f.coeff[2].imag == 0.0)


class _OracleModeStepper:
    """The per-mode Strang step the stacked stepper replaced: one FFT pair per mode and step."""

    def __init__(self, k, lmax, shear, nu):
        self.k = k
        self.shear = shear
        self.nu = nu
        self.ls = np.arange(-lmax, lmax + 1)
        self.ny = next_fast_len(2 * (2 * lmax + 1))
        self.y = 2.0 * np.pi * np.arange(self.ny) / self.ny
        self.advect = not shear.is_zero() and k != 0

    def step(self, coeff, t, dt):
        half = np.exp(-0.5 * self.nu * (self.k**2 + self.ls**2) * dt)
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


def oracle_evolve(rho0, shear, nu, times, dt):
    """evolve_shear through the per-mode oracle on the same step grid."""
    lattice = rho0.lattice
    active = [k for k in lattice.k_values() if np.any(np.abs(rho0.coeff[k + lattice.kmax]) > 0.0)]
    steppers = [_OracleModeStepper(k, lattice.lmax, shear, nu) for k in active]

    def advance(coeffs, t, h, n):
        for i in range(n):
            coeffs = [s.step(c, t + i * h, h) for s, c in zip(steppers, coeffs)]
        return coeffs

    state = [rho0.coeff[k + lattice.kmax] for k in active]
    samples, diag_times = _march(times, dt, state, advance)
    coeff = np.zeros((len(times),) + lattice.shape, dtype=complex)
    coeff[:, np.array(active) + lattice.kmax] = samples
    return FieldTrajectory(nu, np.asarray(times), lattice, coeff, diag_times)


@st.composite
def shear_specs(draw):
    """Random steady or time-periodic shears of one to three harmonics."""
    time_modes = ["const"] if draw(st.booleans()) else ["const", "cos", "sin"]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        ky = draw(st.integers(0, 4))
        phase = "cos" if ky == 0 else draw(st.sampled_from(["cos", "sin"]))
        terms.append(ShearTerm(draw(st.floats(-2.0, 2.0)), ky, phase, draw(st.sampled_from(time_modes))))
    if len(time_modes) > 1 and all(t.time_mode == "const" for t in terms):
        terms[0] = ShearTerm(terms[0].ampl, terms[0].ky, terms[0].phase, "cos")
    return ShearSpec(tuple(terms), period=draw(st.floats(0.5, 2 * math.pi)))


def real_datum(lattice, ks, seed):
    """Random coefficients on the rows +-k, k in ks, made exactly conjugate-symmetric, with mean zero."""
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    coeff = 0.5 * (coeff + np.conj(coeff[::-1, ::-1]))
    coeff[~np.isin(np.abs(lattice.k_values()), list(ks))] = 0.0
    coeff[lattice.kmax, lattice.lmax] = 0.0
    return SpectralField2D(lattice, coeff)


class TestStackedStepper:
    @given(
        shear_specs(),
        st.integers(2, 12),
        st.sets(st.integers(-3, 3), min_size=1),
        st.floats(0.01, 1.0),
        st.floats(1e-3, 0.05),
        st.lists(st.floats(0.01, 0.15), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_mode_oracle(self, shear, lmax, ks, nu, dt, gaps, seed):
        lattice = Lattice(3, lmax)
        rng = np.random.default_rng(seed)
        coeff = np.zeros(lattice.shape, dtype=complex)
        for k in sorted(ks):
            coeff[k + 3] = rng.standard_normal(2 * lmax + 1) + 1j * rng.standard_normal(2 * lmax + 1)
        coeff[3, lmax] = 0.0  # mean zero
        rho0 = SpectralField2D(lattice, coeff)
        times = np.cumsum(gaps)
        got = evolve_shear(rho0, shear, nu, times, dt=dt)
        want = oracle_evolve(rho0, shear, nu, times, dt)
        for g, w in zip(got.fields, want.fields):
            assert np.max(np.abs(g.coeff - w.coeff)) <= 1e-12 * np.max(np.abs(w.coeff))
        np.testing.assert_array_equal(got.diag_times, want.diag_times)

    @given(
        shear_specs(),
        st.integers(2, 12),
        st.sets(st.integers(0, 3), min_size=1),
        st.floats(0.01, 1.0),
        st.floats(1e-3, 0.05),
        st.lists(st.floats(0.01, 0.15), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_real_datum_matches_per_mode_oracle(self, shear, lmax, ks, nu, dt, gaps, seed):
        """A real datum steps its k >= 0 rows only; the stack is exactly real and agrees with every row stepped."""
        rho0 = real_datum(Lattice(3, lmax), ks, seed)
        times = np.cumsum(gaps)
        got = evolve_shear(rho0, shear, nu, times, dt=dt)
        np.testing.assert_array_equal(got.coeff, got.coeff[:, ::-1, ::-1].conj())
        want = oracle_evolve(rho0, shear, nu, times, dt)
        for g, w in zip(got.fields, want.fields):
            assert np.max(np.abs(g.coeff - w.coeff)) <= 1e-12 * np.max(np.abs(w.coeff))
        np.testing.assert_array_equal(got.diag_times, want.diag_times)

    @pytest.mark.parametrize("shear", [SIN_Y, TIME_SIN_Y], ids=["steady", "time_periodic"])
    def test_stepped_rows(self, monkeypatch, shear):
        """Only an exactly real datum drops its k < 0 rows from the stepper."""
        rho0 = real_datum(Lattice(3, 6), {0, 1, 3}, seed=1)
        nudged = rho0.coeff.copy()
        nudged[4, 8] += 1e-15  # within the realness tolerance of SpectralField2D, but not exact
        seen = []

        class Recording(_ShearStepper):
            def __init__(self, ks, *args):
                seen.append(list(ks))
                super().__init__(ks, *args)

        monkeypatch.setattr(shear_module, "_ShearStepper", Recording)
        for datum in (rho0, one_row(rho0, -1), SpectralField2D(rho0.lattice, nudged, validate_real=True)):
            evolve_shear(datum, shear, 0.1, np.array([0.1]))
        assert seen == [[0, 1, 3], [-1], [-3, -1, 0, 1, 3]]


def loop_bounds(shear: ShearSpec, ny: int = 512) -> tuple[float, float]:
    """sup |U| and sup_t mean |dU/dy| on ShearSpec's sampling grid, one time and one term at a time."""
    y = np.linspace(0.0, 2.0 * np.pi, ny, endpoint=False)
    m = w = 0.0
    for t in shear._time_grid():
        u, du = np.zeros_like(y), np.zeros_like(y)
        for term in shear.terms:
            tau = _time_factor(term.time_mode, shear.omega, t)
            u += term.ampl * tau * term.spatial(y)
            du += term.ampl * tau * term.dy_spatial(y)
        m = max(m, float(np.max(np.abs(u))))
        w = max(w, float(np.mean(np.abs(du))))
    return m, w


class TestSampledBounds:
    """The sampled M and w11 come from one array-time call each, equal to the per-time loop."""

    def test_shipped_shears(self):
        for path in sorted((ROOT / "scenarios").glob("*/*.json")):
            shear = Scenario.from_file(path).shear_spec
            if shear is not None:
                assert shear._sampled_bounds() == loop_bounds(shear), path.name

    @given(shear_specs())
    @settings(max_examples=60, deadline=None)
    def test_random_shears(self, shear):
        assert shear._sampled_bounds() == loop_bounds(shear)
        assert (shear.M, shear.w11) == loop_bounds(shear)


def stepwise_evolve(monkeypatch, rho0, shear, nu, times, dt):
    """evolve_shear with each segment of n steps taken as n one-step advances."""
    one_step = shear_module._ShearStepper.advance

    def advance(self, coeff, t, h, n):
        for i in range(n):
            coeff = one_step(self, coeff, t + i * h, h, 1)
        return coeff

    with monkeypatch.context() as patch:
        patch.setattr(shear_module._ShearStepper, "advance", advance)
        return evolve_shear(rho0, shear, nu, times, dt=dt)


def assert_same_trajectory(got, want, rtol=1e-12):
    for g, w in zip(got.fields, want.fields):
        assert np.max(np.abs(g.coeff - w.coeff)) <= rtol * np.max(np.abs(w.coeff))
    np.testing.assert_array_equal(got.diag_times, want.diag_times)


# (datum lattice, terms, shear, nu, dt): a zero shear, a steady shear beside a
# k = 0 row, a time-periodic one beside a k = 0 row with a term at the band
# edge |l| = lmax (so a step that kept the slots beyond it would show), and
# the energy-identity acceptance setup
SEGMENT_SETUPS = {
    "zero_shear": (Lattice(2, 6), [(1.0, 1, 2), (0.5, 0, 3)], ZERO, 0.1, 1e-2),
    "steady_with_k0": (Lattice(2, 12), [(1.0, 0, 3), (0.5, 1, 2), (0.3, 2, 1)], SIN_Y, 0.1, 5e-3),
    "time_periodic": (Lattice(2, 12), [(1.0, 0, 3), (0.5, 1, 2), (0.3, 2, 12)], TIME_SIN_Y, 0.1, 5e-3),
    "energy_identity": (Lattice(3, 16), [(1.0, 1, 0)], SIN_Y, 0.1, 1e-3),
}


def segment_setup(name):
    lattice, terms, shear, nu, dt = SEGMENT_SETUPS[name]
    return field_from_terms(lattice, [HarmonicTerm(a, kx, ky) for a, kx, ky in terms]), shear, nu, dt


class TestSegmentAdvance:
    """A segment advanced in one call against the same stepper taking its steps one at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 40, 1000])
    @pytest.mark.parametrize("name", sorted(SEGMENT_SETUPS))
    def test_matches_step_loop(self, name, n):
        rho0, shear, nu, dt = segment_setup(name)
        rows = np.flatnonzero(np.any(rho0.coeff != 0.0, axis=1))
        stepper = _ShearStepper(rows - rho0.lattice.kmax, rho0.lattice.lmax, shear, nu)
        got = stepper.advance(rho0.coeff[rows], 0.0, dt, n)
        want = rho0.coeff[rows]
        for i in range(n):
            want = stepper.step(want, i * dt, dt)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shear", [SIN_Y, TIME_SIN_Y, ZERO], ids=["steady", "time_periodic", "zero"])
    def test_every_edge_sampled_matches_one_segment(self, shear):
        """Sampling every step edge takes the same steps as one segment: the fields agree."""
        rho0, _, nu, dt = segment_setup("steady_with_k0")
        one = evolve_shear(rho0, shear, nu, np.array([40 * dt]), dt=dt)
        dense = evolve_shear(rho0, shear, nu, one.diag_times, dt=dt)
        assert dense.diag_times.size == one.diag_times.size == 41
        want = one.fields[-1].coeff
        assert np.max(np.abs(dense.fields[-1].coeff - want)) <= 1e-12 * np.max(np.abs(want))

    def test_factor_chunks_match_oracle(self, monkeypatch):
        """Advection factors made three steps to a chunk, so segments span 4 and 30 chunks, step as the oracle does."""
        rho0, shear, nu, dt = segment_setup("time_periodic")
        stepper = _ShearStepper([1, 2], rho0.lattice.lmax, shear, nu)
        monkeypatch.setattr(shear_module, "_MATRIX_BUDGET", 3 * 16 * stepper.phase.size * stepper.ny)
        times = np.array([10 * dt, 11 * dt, 0.5])
        assert_same_trajectory(evolve_shear(rho0, shear, nu, times, dt=dt), oracle_evolve(rho0, shear, nu, times, dt))

    @pytest.mark.parametrize("lmax", [16, 64, 128])
    def test_matrix_cache_holds_a_linspace_grid(self, lmax):
        """The 25 segments of linspace(0, 5, 26) at dt = 0.005 share 6 distinct step sizes, all kept."""
        stepper = _ShearStepper([-1, 1], lmax, SIN_Y, 0.1)
        state = np.ones((2, 2 * lmax + 1), dtype=complex)
        _march(np.linspace(0.0, 5.0, 26), 0.005, state, stepper.advance)
        assert len(stepper._matrix_cache) == 6

    def test_irregular_times_keep_the_matrix_cache_bounded(self):
        """400 irregular sample times give 400 step sizes; the cache is emptied when full, not kept for each."""
        rho0 = field_from_terms(Lattice(3, 64), [HarmonicTerm(1.0, 1, 0)])
        times = np.sort(np.random.default_rng(0).uniform(0.0, 5.0, 400))
        tracemalloc.start()
        try:
            got = evolve_shear(rho0, SIN_Y, 0.1, times, dt=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.coeff.nbytes > 5 * 2**20  # the result alone
        assert peak <= 32 * 2**20  # one (2, 129, 129) stack per step size would be over 200 MB

    def test_wide_zero_shear_stays_elementwise(self, monkeypatch):
        """The sharpness family at nu = 0.001 (lmax 1000) only diffuses: no dense step matrix is built."""
        family = sharpness_family(0.001, 1.0)
        times = np.linspace(0.0, 0.2, 5)
        tracemalloc.start()
        try:
            got = evolve_shear(family.rho0, family.shear, family.nu, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # one (2001 x 2001) complex matrix alone is 64 MB
        assert_same_trajectory(got, stepwise_evolve(monkeypatch, family.rho0, family.shear, family.nu, times, None))


class TestStepGrid:
    @pytest.mark.parametrize("dt", [0.0, -0.005, float("inf"), float("nan")])
    def test_nonpositive_dt_rejected(self, dt):
        rho0 = field_from_terms(Lattice(2, 8), [HarmonicTerm(1.0, 1, 0)])
        with pytest.raises(FieldError, match="step size must be positive"):
            evolve_shear(rho0, SIN_Y, 0.1, np.array([1.0]), dt=dt)
        with pytest.raises(FieldError, match="step size must be positive"):
            evolve_shear(one_row(rho0, 1), SIN_Y, 0.1, np.array([1.0]), dt=dt)

    @pytest.mark.parametrize(
        "times", [[], [-0.5, 1.0], [1.0, 1.0], [2.0, 1.0], [0.0, float("nan")], [0.0, float("inf")]]
    )
    def test_bad_sample_times_rejected(self, times):
        rho0 = field_from_terms(Lattice(2, 8), [HarmonicTerm(1.0, 1, 0)])
        with pytest.raises(FieldError, match="times must be"):
            evolve_shear(rho0, SIN_Y, 0.1, np.array(times))
        with pytest.raises(FieldError, match="times must be"):
            evolve_shear(one_row(rho0, 1), SIN_Y, 0.1, np.array(times))
        with pytest.raises(FieldError, match="times must be"):
            evolve_2d(rho0, FlowSpec(()), 0.0, 0.1, np.array(times))


# every step edge of a dt = 1e-3 grid on [0, 1]: the dense energy-identity check
STEP_EDGES = np.arange(1001) * 1e-3


class TestDissipation:
    def test_heat_residual(self):
        rho0 = field_from_terms(Lattice(1, 2), [HarmonicTerm(1.0, 0, 1)])
        traj = evolve_shear(rho0, ZERO, 0.1, STEP_EDGES, dt=1e-3)
        assert dissipation_report(traj).max_residual <= 1e-6

    def test_constant_shear_residual_matches_heat(self):
        rho0 = field_from_terms(Lattice(2, 2), [HarmonicTerm(1.0, 1, 1)])
        sh = ShearSpec((ShearTerm(0.5, 0),))
        traj = evolve_shear(rho0, sh, 0.1, STEP_EDGES, dt=1e-3)
        assert dissipation_report(traj).max_residual <= 1e-6

    def test_sin_shear_residual(self):
        rho0 = field_from_terms(Lattice(2, 16), [HarmonicTerm(1.0, 1, 0)])
        traj = evolve_shear(rho0, SIN_Y, 0.1, STEP_EDGES, dt=1e-3)
        assert dissipation_report(traj).max_residual <= 1e-5

    def test_zero_datum_rejected(self):
        traj = evolve_shear(zeros(Lattice(2, 4)), SIN_Y, 0.1, np.array([0.5]))
        with pytest.raises(FieldError, match="nonzero initial datum"):
            dissipation_report(traj)

    def test_needs_dense_sampling(self):
        traj = evolve_shear(
            field_from_terms(Lattice(1, 2), [HarmonicTerm(1.0, 0, 1)]),
            ZERO,
            0.1,
            np.array([0.0]),
        )
        with pytest.raises(FieldError):
            dissipation_report(traj)


def test_shear_scaling_script_smoke():
    """scripts/shear_scaling.py prints one JSON line per shear and lmax, with slopes from each shear's second on."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, str(ROOT / "scripts" / "shear_scaling.py"), "--lmax", "4", "8"]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["shear"], line["lmax"]) for line in lines] == [
        ("steady", 4), ("steady", 8), ("time_periodic", 4), ("time_periodic", 8)
    ]
    for line in lines:
        assert line["mode_steps"] == 2000  # 1000 steps of dt 0.005 to t = 5, x-modes k = +-1
        assert line["stepped_rows"] == 1  # the real datum cos x steps its k = 1 row only
        assert line["evolve_shear_s"] > 0.0
        assert line["us_per_mode_step"] == pytest.approx(1e6 * line["evolve_shear_s"] / 2000)
    assert [line["slope"] is None for line in lines] == [True, False, True, False]
    assert all(math.isfinite(line["slope"]) for line in lines[1::2])


def test_evolve2d_scaling_script_smoke():
    """scripts/evolve2d_scaling.py prints one JSON line per lattice, with slopes in D from the second on."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, str(ROOT / "scripts" / "evolve2d_scaling.py"), "--lattice", "2", "4"]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["lattice"], line["D"]) for line in lines] == [(2, 25), (4, 81)]
    # two 0.1 segments under the CFL cap 0.2 / (100 * 2 pi + lip * L) of fast_shear_mean
    assert [line["steps"] for line in lines] == [632, 634]
    for line in lines:
        assert line["scenario"] == "fast_shear_mean"
        assert line["evolve_2d_s"] > 0.0
        assert line["us_per_step"] == pytest.approx(1e6 * line["evolve_2d_s"] / line["steps"])
    assert lines[0]["slope"] is None
    assert math.isfinite(lines[1]["slope"])
