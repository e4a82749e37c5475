import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlab.certificates import (
    RESOLVENT_CONST,
    CertificateError,
    c2_certificate,
    check_exponential_bound,
    check_mixing_bound,
    check_upper_envelope,
    mixing_certificate,
    mode_mk,
    nu_scaling_report,
    sharpness_family,
)
from mixlab.flows import preset_shear
from mixlab.shear import evolve_shear
from mixlab.spectral import HarmonicTerm, Lattice, field_from_terms, zeros

SQRT2 = math.sqrt(2.0)


def scan_mk(k, M, nu, delta_k, cap=4_000_000):
    """Independent oracle: first integer (vectorized scan) satisfying both caps."""
    m = np.arange(1, cap + 1, dtype=float)
    ok = (RESOLVENT_CONST * k * k * M * M / (nu * nu * m * m) <= 0.25) & (
        RESOLVENT_CONST / (nu * m) <= delta_k / 16.0
    )
    idx = np.argmax(ok)
    assert ok[idx], "scan cap too small"
    return int(m[idx])


class TestModeMk:
    def test_second_inequality_dominates(self):
        assert mode_mk(1, 0.0, 0.1, 0.1) == 16_000_000
        got = mode_mk(1, 0.0, 0.1, 0.1)
        assert (
            RESOLVENT_CONST / (0.1 * got) <= 0.1 / 16.0
            and RESOLVENT_CONST / (0.1 * (got - 1)) > 0.1 / 16.0
        )

    def test_first_inequality_dominates(self):
        assert mode_mk(1, 1.0, 0.1, 1e9) == 2000
        assert mode_mk(1, 1.0, 0.1, 1e9) == scan_mk(1, 1.0, 0.1, 1e9)

    def test_floor_at_one(self):
        assert mode_mk(1, 0.0, 1.0, 1e9) == scan_mk(1, 0.0, 1.0, 1e9)

    @given(
        st.integers(1, 6),
        st.floats(0.0, 2.0),
        st.floats(0.2, 1.0),
        st.floats(0.5, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_equals_scan(self, k, M, nu, delta_k):
        assert mode_mk(k, M, nu, delta_k) == scan_mk(k, M, nu, delta_k)

    @given(st.integers(1, 5), st.floats(0.1, 2.0), st.floats(0.2, 1.0), st.floats(0.5, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity(self, k, M, nu, delta_k):
        m = mode_mk(k, M, nu, delta_k)
        assert mode_mk(k, M, min(1.0, nu * 1.5), delta_k) <= m
        assert mode_mk(k, M, nu, delta_k * 2.0) <= m
        assert mode_mk(k + 1, M, nu, delta_k) >= m
        assert mode_mk(k, M * 1.5, nu, delta_k) >= m


RHO_X = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 1, 0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: c2_certificate(RHO_X, x, 0.1),
        lambda x: c2_certificate(RHO_X, 1.0, x),
        lambda x: mixing_certificate(RHO_X, x, 0.1, 1.0),
        lambda x: mixing_certificate(RHO_X, 1.0, x, 1.0),
        lambda x: mixing_certificate(RHO_X, 1.0, 0.1, x),
        lambda x: mode_mk(1, x, 0.1, 0.1),
        lambda x: mode_mk(1, 1.0, x, 0.1),
        lambda x: mode_mk(1, 1.0, 0.1, x),
    ],
    ids=["c2_M", "c2_nu", "mix_M", "mix_nu", "mix_c2", "mk_M", "mk_nu", "mk_delta"],
)
def test_nonfinite_argument_rejected(call, bad):
    with pytest.raises(CertificateError):
        call(bad)


class TestC2:
    def test_heat_branch_cos_y(self):
        rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 1)])
        for nu in (0.1, 0.05, 0.025):
            cert = c2_certificate(rho0, 0.0, nu)
            assert cert.branch == "heat_only"
            assert cert.beta0 == pytest.approx(2 * nu, rel=1e-13)
            # hand oracle: max(2 nu, nu + 2 nu log sqrt(2)) = 2 nu
            assert cert.c2 == pytest.approx(2 * nu, abs=1e-12)

    def test_heat_branch_cos_ny(self):
        nu, n = 0.1, 3
        rho0 = field_from_terms(Lattice(1, 4), [HarmonicTerm(1.0, 0, n)])
        cert = c2_certificate(rho0, 0.0, nu)
        # candidate = max(2 nu n^2, nu n^2 (1 + log 2)) = 2 nu n^2
        assert cert.c2 == pytest.approx(2 * nu * n * n, abs=1e-12)
        assert cert.c2 >= nu * n * n  # dominates the true decay rate

    def test_c2_at_least_nu(self):
        rho0 = field_from_terms(
            Lattice(3, 3), [HarmonicTerm(0.7, 1, 2, "sin"), HarmonicTerm(0.2, 0, 1)]
        )
        for nu in (0.9, 0.3, 0.05):
            assert c2_certificate(rho0, 1.0, nu).c2 >= nu

    def test_branch_switch_reproduces_heat_formula(self):
        lat = Lattice(3, 4)
        both = field_from_terms(lat, [HarmonicTerm(1.0, 1, 0), HarmonicTerm(1.0, 0, 2)])
        cert_x = c2_certificate(both, 0.5, 0.1)
        assert cert_x.branch == "x_modes"
        only_y = field_from_terms(lat, [HarmonicTerm(1.0, 0, 2)])
        cert_h = c2_certificate(only_y, 0.5, 0.1)
        assert cert_h.branch == "heat_only"
        b0 = cert_h.beta0
        want = max(b0, 0.1 * 4 + b0 * math.log(cert_h.N / 0.5))
        assert cert_h.c2 == pytest.approx(want, rel=1e-13)

    def test_records_kept_for_audit(self):
        rho0 = field_from_terms(
            Lattice(3, 3), [HarmonicTerm(1.0, 1, 0), HarmonicTerm(0.3, 2, 1)]
        )
        cert = c2_certificate(rho0, 1.0, 0.2)
        assert len(cert.records) >= 1
        assert cert.selected in [r.k for r in cert.records]
        blob = cert.to_json()
        assert len(blob["records"]) == len(cert.records)

    def test_zero_field_rejected(self):
        with pytest.raises(CertificateError):
            c2_certificate(zeros(Lattice(2, 2)), 0.0, 0.1)


class TestMixing:
    def test_sharpness_single_mode(self):
        nu = 0.25
        n = 4
        rho0 = field_from_terms(Lattice(1, n), [HarmonicTerm(1.0, 0, n)])
        cert = c2_certificate(rho0, 0.0, nu)
        mix = mixing_certificate(rho0, 0.0, nu, cert.c2)
        assert [m.k for m in mix.modes] == [0]
        rec = mix.modes[0]
        assert rec.J_k == n and rec.N_k == n
        assert mix.R_star == pytest.approx(float(n))
        assert mix.c_star == pytest.approx(1.0 / (2 * n))

    def test_cos_y_arithmetic(self):
        rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 1)])
        mix = mixing_certificate(rho0, 0.0, 0.1, 0.2)
        assert (mix.K_c, mix.K_0, mix.K) == (2, 0, 2)
        assert mix.R_star == 1.0
        assert mix.c_star == 0.5

    def test_zero_shear_window_is_initial_tail(self):
        # with M = 0 the barrier term vanishes: N_k = max(J_k, 1)
        rho0 = field_from_terms(
            Lattice(2, 8), [HarmonicTerm(1.0, 1, 5), HarmonicTerm(0.5, 0, 2)]
        )
        mix = mixing_certificate(rho0, 0.0, 0.1, c2_certificate(rho0, 0.0, 0.1).c2)
        for rec in mix.modes:
            if rec.k != 0:
                assert rec.N_k == max(rec.J_k, 1)

    def test_shear_barrier_enlarges_window(self):
        rho0 = field_from_terms(Lattice(2, 16), [HarmonicTerm(1.0, 1, 0)])
        mix = mixing_certificate(rho0, 1.0, 0.1, c2_certificate(rho0, 1.0, 0.1).c2)
        rec = [m for m in mix.modes if m.k == 1][0]
        assert rec.N_k == 10  # ceil(|k| M / nu)


class TestSharpnessFamily:
    def test_nu_025(self):
        fam = sharpness_family(0.25, 1.0)
        assert fam.n == 4
        assert fam.expected_ratio == 0.25
        assert fam.expected_c_star == 0.125
        assert fam.decay_rate == pytest.approx(4.0)
        assert fam.rate_window == (4.0, 16.0)
        assert fam.rate_window[0] <= fam.decay_rate <= fam.rate_window[1]

    def test_nu_one(self):
        fam = sharpness_family(1.0, 1.0)
        assert fam.n == 1 and fam.expected_ratio == 1.0

    def test_nu_01_rate_window(self):
        fam = sharpness_family(0.1, 1.0)
        assert fam.decay_rate == pytest.approx(10.0)
        assert fam.rate_window == (10.0, 40.0)

    def test_invalid_parameters(self):
        with pytest.raises(CertificateError):
            sharpness_family(2.0, 1.0)
        with pytest.raises(CertificateError):
            sharpness_family(0.5, 0.0)


class TestNuScaling:
    def test_heat_branch_ratio_constant(self):
        rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 1)])
        rows = nu_scaling_report(rho0, 0.0, [0.1, 0.05, 0.025])
        for r in rows:
            assert r.c2 == pytest.approx(2 * r.nu, abs=1e-12)
            assert r.c2_over_nu == pytest.approx(2.0, abs=1e-10)

    def test_x_branch_times_nu_bounded(self):
        rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 1, 0)])
        rows = nu_scaling_report(rho0, 1.0, [0.5, 0.25, 0.125])
        products = [r.c2_times_nu for r in rows]
        # recorded, bounded by a data constant over the sampled range
        assert max(products) < float("inf")
        assert rows[-1].nu == 0.125

    def test_nu_one_edge_included(self):
        rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 1)])
        rows = nu_scaling_report(rho0, 0.0, [1.0, 0.5])
        assert rows[0].nu == 1.0

    def test_rejects_bad_lists(self):
        rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 1)])
        with pytest.raises(CertificateError):
            nu_scaling_report(rho0, 0.0, [0.1, 0.2])
        with pytest.raises(CertificateError):
            nu_scaling_report(rho0, 0.0, [1.5, 0.5])


class TestBoundChecks:
    def make_heat_run(self, nu=0.1, n=1, t_max=5.0):
        rho0 = field_from_terms(Lattice(1, max(2, n)), [HarmonicTerm(1.0, 0, n)])
        traj = evolve_shear(rho0, preset_shear("zero"), nu, np.linspace(0.0, t_max, 21))
        cert = c2_certificate(rho0, 0.0, nu)
        return rho0, traj, cert

    def test_heat_margin_grows_like_exp(self):
        nu = 0.1
        _, traj, cert = self.make_heat_run(nu=nu)
        rep = check_exponential_bound(traj, cert)
        assert rep.passed
        for s, t in zip(rep.samples, traj.times):
            assert s.margin == pytest.approx(math.exp((cert.c2 - nu) * t), rel=1e-9)
        assert rep.samples[0].margin == pytest.approx(1.0, abs=1e-12)

    def test_sharpness_margin(self):
        nu, n = 0.25, 4
        _, traj, cert = self.make_heat_run(nu=nu, n=n, t_max=2.0)
        rep = check_exponential_bound(traj, cert)
        assert rep.passed  # c2 = 2 nu n^2 >= nu n^2
        for s, t in zip(rep.samples, traj.times):
            assert s.margin == pytest.approx(math.exp((cert.c2 - nu * n * n) * t), rel=1e-8)

    def test_upper_envelope(self):
        _, traj, cert = self.make_heat_run()
        rep = check_upper_envelope(traj, cert)
        assert rep.passed

    def test_mixing_check_slack_two_for_sharpness(self):
        nu, n = 0.25, 4
        rho0, traj, cert = self.make_heat_run(nu=nu, n=n, t_max=2.0)
        mix = mixing_certificate(rho0, 0.0, nu, cert.c2)
        rep = check_mixing_bound(traj, mix)
        assert rep.passed
        assert rep.extras["slack_factor"] == pytest.approx(2.0, abs=1e-12)
        assert rep.extras["retention_ok"]

    def test_cos_y_ratio_one(self):
        rho0, traj, cert = self.make_heat_run()
        mix = mixing_certificate(rho0, 0.0, 0.1, cert.c2)
        rep = check_mixing_bound(traj, mix)
        assert rep.passed
        for s in rep.samples:
            assert s.measured == pytest.approx(1.0, rel=1e-12)

    def test_shear_scenario_passes_with_slack(self):
        nu = 0.1
        rho0 = field_from_terms(Lattice(2, 16), [HarmonicTerm(1.0, 1, 0)])
        sh = preset_shear("couette")
        cert = c2_certificate(rho0, sh.M, nu)
        mix = mixing_certificate(rho0, sh.M, nu, cert.c2)
        traj = evolve_shear(rho0, sh, nu, np.linspace(0.0, 5.0, 11), dt=5e-3)
        rep = check_mixing_bound(traj, mix)
        assert rep.passed
        assert rep.extras["slack_factor"] > 1.0
