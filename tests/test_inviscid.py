import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.special import jv

from mixlab import inviscid
from mixlab.harness import Scenario, json_text
from mixlab.flows import ShearSpec, ShearTerm, preset_shear
from mixlab.inviscid import check_inviscid_bound, evolve_inviscid, inviscid_certificate
from mixlab.shear import evolve_shear
from mixlab.spectral import HarmonicTerm, Lattice, SpectralField2D, embed, field_from_terms, l2_norm

SIN_Y = preset_shear("couette")
EXTRA_DIR = Path(__file__).resolve().parent.parent / "scenarios" / "extra"


def cos_x(lattice=Lattice(2, 2)):
    return field_from_terms(lattice, [HarmonicTerm(1.0, 1, 0)])


def mode_mass(field, k):
    return float(np.sum(np.abs(field.coeff[k + field.lattice.kmax, :]) ** 2))


def at(theta0, shear, t):
    return evolve_inviscid(theta0, shear, [t]).fields[0]


class TestEvolve:
    def test_time_zero_is_identity(self):
        theta0 = cos_x()
        state = at(theta0, SIN_Y, 0.0)
        assert state.lattice == theta0.lattice
        assert np.array_equal(state.coeff, theta0.coeff)

    def test_bessel_coefficients(self):
        # cos x under steady sin y is cos(x - t sin y): coefficient at (1, m) is (-1)^m J_m(t)/2
        t = 3.0
        state = at(cos_x(), SIN_Y, t)
        for m in range(-state.lattice.lmax, state.lattice.lmax + 1):
            assert state[(1, m)] == pytest.approx((-1) ** m * 0.5 * jv(m, t), abs=1e-13)

    def test_x_independent_datum_is_stationary(self):
        theta0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 2)])
        state = at(theta0, SIN_Y, 7.0)
        assert state[(0, 2)] == pytest.approx(0.5)
        assert l2_norm(state) == pytest.approx(l2_norm(theta0), rel=1e-14)

    def test_mass_conserved_per_mode(self):
        theta0 = field_from_terms(
            Lattice(2, 3), [HarmonicTerm(1.0, 1, 1), HarmonicTerm(0.5, 2, 0, "sin")]
        )
        for state in evolve_inviscid(theta0, SIN_Y, [0.5, 5.0, 20.0]).fields:
            for k in (1, 2):
                assert mode_mass(state, k) == pytest.approx(mode_mass(theta0, k), rel=1e-10)

    def test_mass_conserved_under_high_wavenumber_shear(self):
        # the tail of e^{-ik Phi} for Phi ~ a t cos(4y) sits at l = 4n: a bandwidth
        # margin blind to the shear wavenumber let 8.5e-10 of the k = 3 mass escape
        theta0 = field_from_terms(Lattice(3, 3), [HarmonicTerm(1.0, 3, 0)])
        shear = ShearSpec((ShearTerm(1.0, 4, "cos"),) * 2)
        state = at(theta0, shear, 11.0)
        assert mode_mass(state, 3) == pytest.approx(mode_mass(theta0, 3), rel=1e-12)

    def test_phase_unitarity_on_grid(self):
        # |F_k(y,t)| = |F_k^0(y)| pointwise
        theta0 = field_from_terms(Lattice(1, 3), [HarmonicTerm(1.0, 1, 1)])
        t = 4.0
        state = at(theta0, SIN_Y, t)
        y = 2 * np.pi * np.arange(512) / 512
        ls0 = np.arange(-theta0.lattice.lmax, theta0.lattice.lmax + 1)
        f0 = np.exp(1j * np.outer(y, ls0)) @ theta0.coeff[1 + theta0.lattice.kmax, :]
        ls1 = np.arange(-state.lattice.lmax, state.lattice.lmax + 1)
        f1 = np.exp(1j * np.outer(y, ls1)) @ state.coeff[1 + state.lattice.kmax, :]
        assert np.max(np.abs(np.abs(f1) - np.abs(f0))) <= 1e-10

    def test_rigid_translation_leaves_moduli(self):
        # constant part of the shear shifts phases only
        sh = ShearSpec((ShearTerm(1.0, 0), ShearTerm(1.0, 1, "sin")))
        theta0 = cos_x()
        with_drift = at(theta0, sh, 2.0)
        without = at(theta0, SIN_Y, 2.0)
        assert np.allclose(np.abs(with_drift.coeff), np.abs(without.coeff), atol=1e-12)

    def test_matches_evolve_shear_at_vanishing_nu(self):
        # constant, steady and time-periodic terms; both solve theta_t + U theta_x = nu Laplacian theta
        sh = ShearSpec(
            (ShearTerm(1.0, 0), ShearTerm(1.0, 1, "sin"), ShearTerm(0.5, 2, "cos", "cos")), period=1.5
        )
        theta0 = field_from_terms(Lattice(2, 3), [HarmonicTerm(1.0, 1, 1), HarmonicTerm(0.3, 1, 0, "sin")])
        state = at(theta0, sh, 2.0)
        ref = evolve_shear(embed(theta0, state.lattice), sh, 1e-12, [2.0], dt=1e-3).fields[0]
        assert np.max(np.abs(state.coeff - ref.coeff)) <= 1e-7

    def test_w11_growth_of_mode_derivative(self, monkeypatch):
        monkeypatch.setattr(inviscid, "_DEFAULT_SAFETY", 1.0)
        theta0 = field_from_terms(Lattice(1, 2), [HarmonicTerm(1.0, 1, 1)])
        cert = inviscid_certificate(theta0, SIN_Y)
        assert cert.safety == 1.0
        y = 2 * np.pi * np.arange(2048) / 2048
        traj = evolve_inviscid(theta0, SIN_Y, [0.0, 1.0, 5.0, 15.0])
        for t, state in zip(traj.times, traj.fields):
            lmax = state.lattice.lmax
            ls = np.arange(-lmax, lmax + 1)
            row = state.coeff[1 + state.lattice.kmax, :]
            df = np.exp(1j * np.outer(y, ls)) @ (1j * ls * row)
            l1 = float(np.mean(np.abs(df)))
            assert l1 <= cert.A + cert.B * t + 1e-6


def _integrated_time_factor(mode, omega, t):
    if mode == "const":
        return t
    if mode == "cos":
        return math.sin(omega * t) / omega
    return (1.0 - math.cos(omega * t)) / omega


def dense_reference(theta0, shear, t, lmax_out):
    """The map one time and one mode at a time: y-mean drift e^{-ikX} and dense DFTs of e^{-ik Phi}."""
    lat = theta0.lattice
    ny = 2 * (2 * lmax_out + 1)
    y = 2 * np.pi * np.arange(ny) / ny
    phi = np.zeros(ny)
    drift = 0.0
    for term in shear.terms:
        a = term.ampl * _integrated_time_factor(term.time_mode, shear.omega, t)
        if term.ky == 0:
            drift += a
        else:
            phi += a * term.spatial(y)
    ls_in = lat.l_values()
    dft = np.exp(-1j * np.outer(np.arange(-lmax_out, lmax_out + 1), y)) / ny
    out = embed(theta0, Lattice(lat.kmax, lmax_out)).coeff
    for k in lat.k_values():
        row = theta0.coeff[k + lat.kmax]
        if k == 0 or not np.any(row):
            continue
        vals = (np.exp(1j * np.outer(y, ls_in)) @ row) * np.exp(-1j * k * phi) * np.exp(-1j * k * drift)
        out[k + lat.kmax] = dft @ vals
    return out


_shear_terms = st.lists(
    st.tuples(
        st.floats(-1.0, 1.0),
        st.integers(1, 3),
        st.sampled_from(["cos", "sin"]),
        st.sampled_from(["const", "cos", "sin"]),
    ),
    max_size=3,
)


@st.composite
def _transport_cases(draw):
    kmax, lmax = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeff = rng.standard_normal((2 * kmax + 1, 2 * lmax + 1)) + 1j * rng.standard_normal((2 * kmax + 1, 2 * lmax + 1))
    coeff = 0.5 * (coeff + np.conj(coeff[::-1, ::-1]))
    coeff[kmax, lmax] = 0.0
    mean = draw(st.tuples(st.floats(-1.0, 1.0), st.sampled_from(["const", "cos", "sin"])))
    terms = [ShearTerm(mean[0], 0, "cos", mean[1])] + [ShearTerm(*t) for t in draw(_shear_terms)]
    shear = ShearSpec(tuple(terms), period=draw(st.floats(0.5, 7.0)))
    times = sorted(set(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))))
    return SpectralField2D(Lattice(kmax, lmax), coeff), shear, times


@settings(max_examples=30, deadline=None)
@given(_transport_cases())
def test_stacked_map_matches_dense_reference(case):
    theta0, shear, times = case
    traj = evolve_inviscid(theta0, shear, times)
    lat = traj.fields[0].lattice
    scale = l2_norm(theta0)
    for t, state in zip(times, traj.fields):
        ref = dense_reference(theta0, shear, t, lat.lmax)
        assert np.max(np.abs(state.coeff - ref)) <= 1e-12 * scale
        for k in theta0.lattice.k_values():
            assert mode_mass(state, k) == pytest.approx(mode_mass(theta0, k), rel=1e-12)


def all_rows_map(theta0, shear, times):
    """The map of a real datum as the sum of the maps of its k > 0 and k <= 0 parts.

    Neither part is real, so each has every active row moved.
    """
    positive = theta0.coeff * (theta0.lattice.k_values() > 0)[:, None]
    parts = [evolve_inviscid(SpectralField2D(theta0.lattice, c), shear, times) for c in (positive, theta0.coeff - positive)]
    assert parts[0].lattice == parts[1].lattice
    return parts[0].coeff + parts[1].coeff


@settings(max_examples=30, deadline=None)
@given(_transport_cases())
def test_real_datum_map_is_exactly_real(case):
    """A real datum moves its k > 0 rows only: the stack is exactly real and agrees with every row moved."""
    theta0, shear, times = case
    traj = evolve_inviscid(theta0, shear, times)
    np.testing.assert_array_equal(traj.coeff, traj.coeff[:, ::-1, ::-1].conj())
    want = all_rows_map(theta0, shear, times)
    assert want.shape == traj.coeff.shape
    assert np.max(np.abs(traj.coeff - want)) <= 1e-13 * l2_norm(theta0)


def test_real_datum_keeps_the_shipped_audit():
    """On inviscid_cosx_siny the audit of the real-datum map reads as that of the map of every row."""
    scenario = Scenario.from_file(EXTRA_DIR / "inviscid_cosx_siny.json")
    theta0, shear, times = scenario.rho0, scenario.shear_spec, scenario.times
    cert = inviscid_certificate(theta0, shear)
    traj = evolve_inviscid(theta0, shear, times)
    got = check_inviscid_bound(traj, cert).extras
    traj.coeff[...] = all_rows_map(theta0, shear, times)
    want = check_inviscid_bound(traj, cert).extras
    assert got["tail_ok"] and got["mass_ok"]
    assert (got["tail_ok"], got["mass_ok"], got["max_tail_ratio"]) == (
        want["tail_ok"], want["mass_ok"], want["max_tail_ratio"]
    )


def test_blocked_sample_times_are_bit_identical(monkeypatch):
    theta0 = field_from_terms(Lattice(2, 3), [HarmonicTerm(1.0, 1, 1), HarmonicTerm(0.5, 2, 0, "sin")])
    sh = ShearSpec((ShearTerm(1.0, 1, "sin"), ShearTerm(0.5, 2, "cos", "cos")), period=1.5)
    times = np.linspace(0.0, 6.0, 7)
    whole = evolve_inviscid(theta0, sh, times)
    lat = whole.fields[0].lattice
    grid_per_time = 4 * next_fast_len(2 * (2 * lat.lmax + 1))  # four active x-modes
    for per_block in (1, 3):  # blocks of 1, and of 3, 3, 1 sample times
        monkeypatch.setattr(inviscid, "_GRID_BUDGET", per_block * grid_per_time)
        blocked = evolve_inviscid(theta0, sh, times)
        assert blocked.fields[0].lattice == lat
        for a, b in zip(whole.fields, blocked.fields):
            assert np.array_equal(a.coeff, b.coeff)


class TestCertificate:
    def test_cos_x_sin_y_hand_arithmetic(self):
        theta0 = cos_x()
        cert = inviscid_certificate(theta0, SIN_Y)
        assert not cert.stationary
        assert cert.k == 1
        assert cert.S == pytest.approx(0.25)
        assert cert.A == 0.0  # constant mode profile
        b = 1 * SIN_Y.w11 * 0.5 * 1.01
        d = 1 + 8 * b * b / 0.25
        assert cert.B == pytest.approx(b, rel=1e-12)
        assert cert.D == pytest.approx(d, rel=1e-12)
        assert cert.c_star == pytest.approx(math.sqrt(0.25 / (2 * (1 + 2 * d * d))), rel=1e-12)

    def test_stationary_datum(self):
        theta0 = field_from_terms(Lattice(2, 2), [HarmonicTerm(1.0, 0, 1)])
        cert = inviscid_certificate(theta0, SIN_Y)
        assert cert.stationary
        assert cert.c_star == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_tail_cutoff_formula(self):
        cert = inviscid_certificate(cos_x(), SIN_Y)
        for t in (0.0, 1.0, 10.0):
            v = cert.A + cert.B * t
            assert cert.tail_cutoff(t) == max(1, math.ceil(4 * v * v / cert.S))

    def test_mode_choice_maximizes_c_star(self):
        # mass at k=2 has a weaker certificate than at k=1 (same profile)
        theta0 = field_from_terms(
            Lattice(3, 2), [HarmonicTerm(1.0, 1, 0), HarmonicTerm(1.0, 2, 0)]
        )
        cert = inviscid_certificate(theta0, SIN_Y)
        assert cert.k == 1


class TestBoundCheck:
    def test_stationary_margin_is_one_plus_t_squared(self):
        theta0 = field_from_terms(Lattice(2, 2), [HarmonicTerm(1.0, 0, 1)])
        cert = inviscid_certificate(theta0, SIN_Y)
        times = [0.0, 1.0, 3.0]
        rep = check_inviscid_bound(evolve_inviscid(theta0, SIN_Y, times), cert)
        assert rep.passed
        assert rep.extras == {}
        for s, t in zip(rep.samples, times):
            assert s.margin == pytest.approx(1 + t * t, rel=1e-12)

    def test_cos_x_sin_y_passes_to_t50(self):
        theta0 = cos_x()
        cert = inviscid_certificate(theta0, SIN_Y)
        times = list(np.linspace(0.0, 50.0, 26))
        rep = check_inviscid_bound(evolve_inviscid(theta0, SIN_Y, times), cert)
        assert rep.passed
        assert rep.extras["tail_ok"]
        assert rep.extras["mass_ok"]
        assert rep.extras["max_mass_drift"] <= 1e-12

    def test_mass_drift_fails_the_check(self):
        theta0 = cos_x()
        cert = inviscid_certificate(theta0, SIN_Y)
        traj = evolve_inviscid(theta0, SIN_Y, [0.0, 1.0, 2.0])
        traj.coeff[-1] *= 1.0 + 1e-6
        rep = check_inviscid_bound(traj, cert)
        assert rep.min_margin >= 1.0
        assert rep.extras["max_mass_drift"] == pytest.approx(2e-6, rel=1e-3)
        assert not rep.extras["mass_ok"]
        assert rep.verdict == "FAIL"

    def test_zero_first_sample_fails_the_audit_without_warning(self):
        theta0 = cos_x()
        cert = inviscid_certificate(theta0, SIN_Y)
        traj = evolve_inviscid(theta0, SIN_Y, [0.0, 1.0, 2.0])
        traj.coeff[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_inviscid_bound(traj, cert)
            text = json_text(rep.to_json())
        assert rep.extras["max_mass_drift"] == math.inf
        assert not rep.extras["mass_ok"]
        assert rep.verdict == "FAIL"
        assert json.loads(text)["extras"]["max_mass_drift"] is None

    def test_mass_loss_in_uncertified_mode_fails_the_check(self):
        theta0 = field_from_terms(Lattice(3, 2), [HarmonicTerm(1.0, 1, 0), HarmonicTerm(1.0, 2, 1)])
        cert = inviscid_certificate(theta0, SIN_Y)
        assert cert.k == 1
        traj = evolve_inviscid(theta0, SIN_Y, [0.0, 1.0, 2.0])
        assert check_inviscid_bound(traj, cert).passed
        traj.coeff[1, 2 + traj.lattice.kmax] *= 0.999
        rep = check_inviscid_bound(traj, cert)
        # row k = 2 holds a quarter of the mass and loses 1 - 0.999^2 of it
        assert rep.extras["max_mass_drift"] == pytest.approx(0.25 * (1 - 0.999**2), rel=1e-9)
        assert not rep.extras["mass_ok"]
        assert rep.verdict == "FAIL"

    def test_time_dependent_shear(self):
        sh = ShearSpec((ShearTerm(1.0, 1, "sin", "cos"),), w11=2 / math.pi)
        theta0 = cos_x()
        cert = inviscid_certificate(theta0, sh)
        rep = check_inviscid_bound(evolve_inviscid(theta0, sh, np.linspace(0.0, 20.0, 11)), cert)
        assert rep.passed
