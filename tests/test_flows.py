import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from mixlab.flows import (
    _integrate_time,
    _time_factor,
    FlowSpec,
    FlowSpecError,
    FlowTerm,
    ShearSpec,
    ShearTerm,
    flow_from_json,
    flow_to_json,
    phase_integral,
    preset_flow,
    preset_shear,
    time_average,
)

TWO_PI = 2 * math.pi
Y = np.linspace(0.0, TWO_PI, 256, endpoint=False)


class TestPhaseIntegral:
    def test_steady_is_t_times_u(self):
        sh = preset_shear("couette")
        phi = phase_integral(sh, 2.0)
        # sin y -> coefficients -i/2, +i/2 at l = +-1, scaled by t
        assert phi[2] == pytest.approx(-1j, abs=0)
        assert phi[0] == pytest.approx(1j, abs=0)

    def test_zero_time(self):
        assert np.all(phase_integral(preset_shear("couette"), 0.0) == 0.0)

    def test_cos_t_sin_y_at_pi(self):
        # time integral of cos over [0, pi] vanishes
        sh = ShearSpec((ShearTerm(1.0, 1, "sin", "cos"),), period=TWO_PI)
        phi = phase_integral(sh, math.pi)
        assert np.max(np.abs(phi)) <= 1e-12

    def test_constant_shear_is_rigid_drift(self):
        sh = ShearSpec((ShearTerm(1.0, 0),))
        for t in (1.0, 7.5):
            phi = phase_integral(sh, t)
            assert phi[1] == pytest.approx(t)
            assert phi[0] == phi[2] == 0.0

    def test_offset_plus_cos(self):
        sh = ShearSpec((ShearTerm(2.0, 0), ShearTerm(1.0, 1, "cos")))
        assert phase_integral(sh, 3.0) == pytest.approx([1.5, 6.0, 1.5])

    def test_w11_linear_growth(self):
        # the y-mean term drifts rigidly and adds nothing to d_y Phi
        sh = ShearSpec((ShearTerm(0.8, 0, time_mode="cos"), ShearTerm(1.0, 1, "sin", "cos")), period=TWO_PI)
        for t in (0.5, 2.0, 10.0):
            phi = phase_integral(sh, t)
            lmax = (len(phi) - 1) // 2
            ls = np.arange(-lmax, lmax + 1)
            dphi = np.exp(1j * np.outer(Y, ls)) @ (1j * ls * phi)
            l1 = float(np.mean(np.abs(dphi)))
            assert l1 <= sh.w11 * t + 1e-6


class TestTimeAverage:
    def test_phase_independent_flow(self):
        flow = preset_flow("cellular")
        ubar = time_average(flow)
        now = flow.velocity_coeffs(0.3, ubar.lattice)
        assert np.allclose(ubar.u, now.u, atol=1e-13)
        assert np.allclose(ubar.v, now.v, atol=1e-13)

    def test_zero_mean_oscillation(self):
        flow = FlowSpec((FlowTerm(1.0, 1, 1, "cos", "cos"),), period=1.0)
        ubar = time_average(flow)
        assert np.max(np.abs(ubar.u)) <= 1e-12
        assert np.max(np.abs(ubar.v)) <= 1e-12

    def test_one_plus_half_cos(self):
        steady = FlowTerm(1.0, 1, 1, "cos", "const")
        osc = FlowTerm(0.5, 1, 1, "cos", "cos")
        flow = FlowSpec((steady, osc), period=2.0)
        ubar = time_average(flow)
        ref = FlowSpec((steady,), period=2.0).velocity_coeffs(0.0, ubar.lattice)
        assert np.max(np.abs(ubar.u - ref.u)) <= 1e-12
        assert np.max(np.abs(ubar.v - ref.v)) <= 1e-12

    def test_average_divergence_free(self):
        flow = FlowSpec(
            (FlowTerm(1.0, 2, 1, "sin", "const"), FlowTerm(0.7, 1, 2, "cos", "sin")),
            period=3.0,
        )
        assert time_average(flow).divergence_max() <= 1e-12


class TestClosedForms:
    """The closed forms against fine numerical integrals."""

    def test_time_average_matches_phase_quadrature(self):
        flow = FlowSpec(
            (
                FlowTerm(0.8, 1, 2, "cos", "const"),
                FlowTerm(-0.6, 2, 1, "sin", "cos"),
                FlowTerm(1.1, 0, 1, "cos", "sin"),
                FlowTerm(0.4, 1, 2, "sin", "sin"),
            ),
            period=2.5,
        )
        ubar = time_average(flow)
        # the trapezoid rule over a full period is exact for these trig polynomials
        thetas = np.linspace(0.0, flow.period, 64, endpoint=False)
        samples = [flow.velocity_coeffs(th, ubar.lattice) for th in thetas]
        assert np.max(np.abs(ubar.u - np.mean([s.u for s in samples], axis=0))) <= 1e-14
        assert np.max(np.abs(ubar.v - np.mean([s.v for s in samples], axis=0))) <= 1e-14

    @pytest.mark.parametrize("mode", ["const", "cos", "sin"])
    @pytest.mark.parametrize("t", [1e-7, 0.3, 2.0, 17.25])
    def test_integrate_time_matches_quadrature(self, mode, t):
        omega = TWO_PI / 1.3
        want, err = quad(lambda s: float(_time_factor(mode, omega, s)), 0.0, t, epsabs=1e-14, epsrel=1e-12, limit=500)
        assert err <= 1e-11
        assert _integrate_time(mode, omega, t) == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_sin_integral_keeps_relative_accuracy_at_small_t(self):
        omega, t = 1.0, 1e-9
        # int_0^t sin(s) ds = t^2/2 - t^4/24 + ...; 1 - cos(t) rounds to 0 here
        assert _integrate_time("sin", omega, t) == pytest.approx(0.5 * t * t, rel=1e-12)


class TestDeclaredBounds:
    def test_declared_bounds_must_dominate(self):
        with pytest.raises(FlowSpecError):
            ShearSpec((ShearTerm(1.0, 1, "sin"),), M=0.5)
        with pytest.raises(FlowSpecError):
            ShearSpec((ShearTerm(1.0, 1, "sin"),), w11=0.1)
        with pytest.raises(FlowSpecError):
            FlowSpec((FlowTerm(1.0, 0, 1, "cos"),), lip=0.2)

    def test_sampled_bounds_autofilled(self):
        sh = ShearSpec((ShearTerm(1.0, 1, "sin"),))
        assert sh.M == pytest.approx(1.0, abs=1e-9)
        assert sh.w11 == pytest.approx(2 / math.pi, abs=1e-4)

    def test_couette_preset_is_periodic_analogue(self):
        sh = preset_shear("couette")
        assert np.allclose(sh.sample(0.0, Y), np.sin(Y), atol=1e-14)

    def test_sampler_matches_term_by_term_sum(self):
        sh = ShearSpec(
            (ShearTerm(0.3, 0, "cos", "sin"), ShearTerm(1.0, 1, "sin"), ShearTerm(0.5, 2, "cos", "cos")),
            period=1.5,
        )
        u_at = sh.sampler(Y)
        ts = np.array([0.0, 0.4, 2.9])
        rows, dy_rows = u_at(ts), sh.dy_sample(ts, Y)
        assert rows.shape == dy_rows.shape == (ts.size, Y.size)
        for i, t in enumerate(ts):
            ref, dy_ref = np.zeros_like(Y), np.zeros_like(Y)
            for term in sh.terms:
                ref += term.ampl * _time_factor(term.time_mode, sh.omega, t) * term.spatial(Y)
                dy_ref += term.ampl * _time_factor(term.time_mode, sh.omega, t) * term.dy_spatial(Y)
            assert np.array_equal(u_at(t), ref)
            assert np.array_equal(u_at(float(t)), ref)
            assert np.array_equal(sh.sample(t, Y), ref)
            assert np.array_equal(rows[i], ref)
            assert np.array_equal(sh.dy_sample(t, Y), dy_ref)
            assert np.array_equal(dy_rows[i], dy_ref)


def _grid_values(coeff, n):
    """Values of the real field with the given centred coefficients on the n x n grid 2 pi (i, j) / n, by FFT."""
    kmax, lmax = (s // 2 for s in coeff.shape)
    padded = np.zeros((n, n), dtype=complex)
    k, l = np.meshgrid(np.arange(-kmax, kmax + 1), np.arange(-lmax, lmax + 1), indexing="ij")
    padded[k % n, l % n] = coeff
    return (n * n * np.fft.ifft2(padded)).real


def _phase_sampled_lip(flow, n=128, phases=4096, chunk=128):
    """max of |u|, |v| and their first derivatives on the n x n grid, sampled at `phases` evenly spaced phases.

    Each function is recovered from its values at the phases 0, L/4 and L/2 as a + b cos + c sin.
    """
    at = [flow.velocity_coeffs(theta) for theta in (0.0, flow.period / 4, flow.period / 2)]
    lat = at[0].lattice
    ik, il = 1j * lat.k_values()[:, None], 1j * lat.l_values()[None, :]
    w = 2 * np.pi * np.arange(phases) / phases
    tau = np.stack((np.ones_like(w), np.cos(w), np.sin(w)), axis=1)
    values = np.empty((chunk, n * n))
    worst = 0.0
    for comp in ("u", "v"):
        for weight in (1.0, ik, il):
            f0, f1, f2 = (_grid_values(weight * getattr(sv, comp), n).ravel() for sv in at)
            abc = np.stack(((f0 + f2) / 2, (f0 - f2) / 2, f1 - (f0 + f2) / 2))
            for first in range(0, phases, chunk):
                np.abs(np.matmul(tau[first : first + chunk], abc, out=values), out=values)
                worst = max(worst, float(values.max()))
    return worst


flow_terms = st.lists(
    st.tuples(
        st.floats(-2.0, 2.0),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.sampled_from(["cos", "sin"]),
        st.sampled_from(["const", "cos", "sin"]),
    ).filter(lambda t: (t[1], t[2]) != (0, 0)),
    min_size=1,
    max_size=3,
)


class TestLipExactInPhase:
    @given(flow_terms, st.sampled_from([1.0, 1.3, TWO_PI]))
    @example([(1.0, 0, 1, "cos", "const"), (1.0, 1, 0, "cos", "cos")], 1.0)  # fast_shear_mean
    @settings(max_examples=6, deadline=None)
    def test_brackets_phase_sampling(self, terms, period):
        """lip is the sup over phase: a 4096-phase sampling reaches it within the sampling's cosine loss, never above."""
        flow = FlowSpec(tuple(FlowTerm(*t) for t in terms), period=period)
        sampled = _phase_sampled_lip(flow)
        scale = 1e-12 * max(1.0, flow.lip)
        assert sampled <= flow.lip + scale
        # the peak of a + R cos(phi - phi0) lies within pi / 4096 of a sample
        assert flow.lip <= sampled + flow.lip * (1.0 - math.cos(math.pi / 4096)) + scale

    def test_steady_and_shipped_values(self):
        # psi = -2 sin x sin y: u = 2 sin x cos y, so |u| and |du/dx| = |2 cos x cos y| peak at 2 on the grid
        assert preset_flow("cellular").lip == pytest.approx(2.0, abs=1e-12)
        assert FlowSpec(()).lip == 0.0
        # the shipped fast flows declare lip = 1.0, which the exact value accepts
        FlowSpec((FlowTerm(1.0, 0, 1, "cos", "const"), FlowTerm(1.0, 1, 0, "cos", "cos")), period=1.0, lip=1.0)


class TestJson:
    def test_shear_round_trip(self):
        sh = ShearSpec((ShearTerm(0.5, 2, "sin", "cos"),), period=4.0, M=0.5, w11=2 / math.pi)
        back = flow_from_json(flow_to_json(sh))
        assert isinstance(back, ShearSpec)
        assert back.terms == sh.terms
        assert back.period == sh.period
        assert back.M == sh.M

    def test_flow_round_trip(self):
        flow = FlowSpec((FlowTerm(1.0, 1, 1, "cos", "sin"),), period=1.0, lip=2.0)
        back = flow_from_json(flow_to_json(flow))
        assert isinstance(back, FlowSpec)
        assert back.terms == flow.terms
        assert back.lip == flow.lip

    def test_preset_names(self):
        assert flow_from_json("zero").is_zero()
        assert isinstance(flow_from_json("cellular"), FlowSpec)

    def test_shear_terms_must_have_zero_kx(self):
        with pytest.raises(FlowSpecError):
            flow_from_json(
                {"kind": "shear", "terms": [{"ampl": 1.0, "kx": 1, "ky": 1}], "bounds": {}}
            )
