import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlab import harness
from mixlab.averaging import FastCertificate, check_fast_bound
from mixlab.certificates import (
    CEILING_SLACK,
    RETENTION_TOL,
    C2Certificate,
    MixCertificate,
    MixModeRecord,
    c2_certificate,
    check_exponential_bound,
    check_mixing_bound,
    check_upper_envelope,
    mixing_certificate,
    nu_scaling_report,
)
from mixlab.flows import preset_shear
from mixlab.inviscid import InviscidCertificate, check_inviscid_bound, inviscid_certificate
from mixlab.reports import make_report
from mixlab.shear import FieldTrajectory
from mixlab.spectral import (
    HarmonicTerm,
    Lattice,
    field_from_terms,
    hneg1_norm,
    l2_norm,
    low_block_energy,
    x_mode,
)

ROOT = Path(__file__).resolve().parent.parent

MODE_KEYS = ["k", "a_k", "L_k", "beta_k", "delta_k", "m_k", "Lambda_k", "D_k", "theta_k", "gamma_k", "C_k"]
HEAT_MODE_KEYS = ["l", "b_l", "C_l"]
C2_KEYS = ["kind", "N", "M", "nu", "L0", "beta0", "delta0", "branch", "records", "selected", "c2"]
MIX_KEYS = ["kind", "c2", "nu", "M", "N", "K_c", "K_0", "K", "modes", "R_star", "c_star"]
MIX_MODE_KEYS = ["k", "a_k", "J_k", "N_k", "radius_sq"]
INVISCID_KEYS = ["kind", "k", "S", "A", "B", "D", "c_star", "stationary", "safety"]
FAST_KEYS = [
    "kind", "nu", "eta", "M", "C_R", "C_S", "S_nu", "K_nu", "D_eta", "gamma_nu", "Q", "K0",
    "rho_norm", "a0_terms", "A0", "c_A", "prefactor", "lambda1", "sylvester_flag",
]


def _field(kx, ky, lattice=Lattice(2, 4)):
    return field_from_terms(lattice, [HarmonicTerm(1.0, kx, ky)])


class TestMakeReport:
    def test_nan_measured_fails_with_zero_margin(self):
        rep = make_report("s", "b", {}, [0.0, 1.0], [math.nan, math.nan], [-0.0, -1.0], 1e-6)
        assert rep.verdict == "FAIL"
        assert rep.min_margin == 0.0
        assert [s.margin for s in rep.samples] == [0.0, 0.0]
        blob = json.loads(harness.json_text(rep.to_json()))
        json.dumps(blob, allow_nan=False)
        assert [s[1] for s in blob["samples"]] == [None, None]

    def test_nan_envelope_fails_with_zero_margin(self):
        rep = make_report("s", "b", {}, [0.0, 1.0], [1.0, 1.0], [0.0, math.nan], 1e-6)
        assert rep.verdict == "FAIL"
        assert rep.min_margin == 0.0
        assert rep.samples[0].margin == 1.0
        blob = json.loads(harness.json_text(rep.to_json()))
        json.dumps(blob, allow_nan=False)
        assert blob["samples"][1][2] is None

    def test_no_samples_serializes_infinite_margin_as_null(self):
        rep = make_report("s", "b", {"c": math.inf}, [], [], [], 1e-6)
        assert rep.min_margin == math.inf
        blob = json.loads(harness.json_text(rep.to_json()))
        assert blob["min_margin"] is None and blob["certificate"] == {"c": None}

    def test_clamped_margins_and_envelopes(self):
        """A ratio above the cap reads 1e300; a vanished measurement (log margin -inf) reads 0."""
        rep = make_report("s", "b", {}, [0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [-1000.0, 0.0, -math.inf], 1e-6)
        assert [s.to_json() for s in rep.samples] == [
            [0.0, 1.0, 0.0, 1e300],
            [1.0, 0.0, 1.0, 0.0],
            [2.0, 1.0, 0.0, 1e300],
        ]
        assert rep.min_margin == 0.0
        assert rep.verdict == "FAIL"

    def test_scalar_envelope_holds_at_every_sample(self):
        rep = make_report("s", "b", {}, np.array([0.0, 1.0]), np.array([2.0, 3.0]), math.log(2.0), 1e-6)
        assert [s.envelope for s in rep.samples] == pytest.approx([2.0, 2.0], rel=1e-15)
        assert rep.min_margin == pytest.approx(1.0, rel=1e-15)
        assert rep.verdict == "PASS"


_CLAMP = math.log(1e300)


def _clamp(x: float) -> float:
    return 0.0 if x == -math.inf else 1e300 if x > _CLAMP else math.exp(x)


def oracle_report(times, rows, tol, extras):
    """Sample rows, min margin and verdict of one check, one (measured, log_envelope) pair at a time."""
    samples, worst = [], math.inf
    for t, (measured, log_env) in zip(times, rows):
        if math.isnan(measured) or math.isnan(log_env) or measured <= 0.0:
            lm = -math.inf
        else:
            lm = math.log(measured) - log_env
        worst = min(worst, lm)
        samples.append([float(t), measured, _clamp(log_env), _clamp(lm)])
    ok = worst >= math.log(1.0 - tol) and all(v for key, v in extras.items() if key.endswith("_ok"))
    return samples, (_clamp(worst) if samples else math.inf), "PASS" if ok else "FAIL"


def assert_close(got, want, rel=1e-14):
    if isinstance(want, float) and math.isnan(want):
        assert math.isnan(got)
    elif isinstance(want, float):
        assert got == want or abs(got - want) <= rel * max(abs(got), abs(want)), (got, want)
    else:
        assert got == want


def assert_report(rep, times, rows, tol, extras):
    samples, min_margin, verdict = oracle_report(times, rows, tol, extras)
    assert len(rep.samples) == len(samples)
    for got, want in zip(rep.samples, samples):
        for g, w in zip(got.to_json(), want):
            assert_close(g, w)
    assert_close(rep.min_margin, min_margin)
    assert rep.verdict == verdict
    assert rep.extras.keys() == extras.keys()
    for key, want in extras.items():
        assert_close(rep.extras[key], want)


C2 = C2Certificate(N=2.0, M=1.0, nu=0.1, L0=1.0, beta0=1.0, delta0=1.0, branch="x_modes", records=(), selected=1, c2=0.5)
FAST = FastCertificate(
    nu=0.1, eta=0.1, M=1.0, C_R=1.0, C_S=1.0, S_nu=1.0, K_nu=10.0, D_eta=1.0, gamma_nu=0.1, Q=1.0, K0=1.0,
    rho_norm=1.0, a0_terms={"t": 1.0}, A0=1e3, c_A=0.3, prefactor=0.5,
)


@st.composite
def trajectories(draw, first_zero=True):
    """A random coefficient stack on a random lattice, mean-zero, with one all-zero sample (not the first one unless first_zero)."""
    lattice = Lattice(draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    n = draw(st.integers(1 if first_zero else 2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n,) + lattice.shape
    coeff = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-2, 1, (n, 1, 1))
    coeff[:, lattice.kmax, lattice.lmax] = 0.0
    coeff[draw(st.integers(0 if first_zero else 1, n - 1))] = 0.0
    times = np.cumsum(rng.uniform(0.05, 1.0, n)) - draw(st.sampled_from([0.0, 0.05]))
    return FieldTrajectory(0.1, np.maximum(times, 0.0), lattice, coeff)


class TestChecksAgainstPerSampleOracle:
    """Every report value of the five checks, from the stack, against SpectralField2D rows one sample at a time."""

    @given(trajectories())
    @settings(max_examples=40, deadline=None)
    def test_exponential_and_ceiling(self, traj):
        fields = traj.fields
        rows = [(l2_norm(f), C2.log_envelope(t)) for t, f in zip(traj.times, fields)]
        assert_report(check_exponential_bound(traj, C2, 1e-6), traj.times, rows, 1e-6, {})
        ceiling = []
        for t, f in zip(traj.times, fields):
            m = l2_norm(f)
            bound = math.exp(math.log(C2.N) - C2.nu * t + math.log1p(CEILING_SLACK))
            ceiling.append((1.0, 0.0) if m == 0.0 else (bound, math.log(m)))
        extras = {"orientation": "samples store (t, ceiling, measured, ceiling/measured)"}
        assert_report(check_upper_envelope(traj, C2, 1e-6), traj.times, ceiling, 1e-6, extras)

    @given(trajectories(), st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 8)), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_mixing(self, traj, windows):
        modes = tuple(MixModeRecord(k, 0.0, 0, n, k * k + n * n) for k, n in windows)
        cert = MixCertificate(0.5, 0.1, 1.0, 2.0, 1, 1, 2, modes, R_star=2.0, c_star=0.25)
        ratios, worst = [], math.inf
        for f in traj.fields:
            n2 = l2_norm(f)
            ratios.append(hneg1_norm(f) / n2 if n2 > 0.0 else math.nan)
            for rec in modes:
                if abs(rec.k) <= traj.lattice.kmax:
                    prof = x_mode(f, rec.k)
                    worst = min(worst, low_block_energy(prof, rec.N_k) - 0.5 * float(np.sum(np.abs(prof.coeff) ** 2)))
        extras = {
            "slack_factor": min((r for r in ratios if not math.isnan(r)), default=math.inf) / cert.c_star,
            "retention_min": worst if worst != math.inf else 0.0,
            "retention_ok": worst >= -RETENTION_TOL,
        }
        rows = [(r, -math.log(2.0 * cert.R_star)) for r in ratios]
        rep = check_mixing_bound(traj, cert, 1e-6)
        assert_report(rep, traj.times, rows, 1e-6, extras)
        assert rep.verdict == "FAIL"  # the zero sample has no mixing scale

    # the mass drift is relative to the first sample's mass, so that sample is nonzero
    @given(trajectories(first_zero=False), st.floats(0.5, 5.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_inviscid(self, traj, S, B):
        cert = InviscidCertificate(k=1, S=S, A=0.5, B=B, D=1.0, c_star=0.05)
        fields = traj.fields
        masses0 = np.sum(np.abs(fields[0].coeff) ** 2, axis=1)
        tail_ratio = drift = 0.0
        for t, f in zip(traj.times, fields):
            power = np.abs(x_mode(f, cert.k).coeff) ** 2
            tail = float(np.sum(power[np.abs(traj.lattice.l_values()) > max(1, math.ceil(4 * (0.5 + B * t) ** 2 / S))]))
            tail_ratio = max(tail_ratio, tail / (S / 2.0))
            change = np.sum(np.abs(np.sum(np.abs(f.coeff) ** 2, axis=1) - masses0))
            drift = max(drift, float(change / np.sum(masses0)))
        extras = {
            "max_tail_ratio": tail_ratio,
            "tail_ok": tail_ratio <= 1.0 + 1e-12,
            "max_mass_drift": drift,
            "mass_ok": drift <= 1e-8,
        }
        rows = [(hneg1_norm(f), math.log(cert.c_star) - math.log1p(t * t)) for t, f in zip(traj.times, fields)]
        assert_report(check_inviscid_bound(traj, cert, 1e-6), traj.times, rows, 1e-6, extras)

    @given(trajectories(), st.sampled_from([50.0, 1e4]))
    @settings(max_examples=40, deadline=None)
    def test_fast(self, traj, A):
        rate = FAST.c_A if A > FAST.A0 else FAST.rate_for(A)
        extras = {
            "A": A,
            "rate_used": rate,
            "regime": "above_threshold" if A > FAST.A0 else "sharper_A_dependent",
            "a0_terms": FAST.a0_terms,
        }
        rows = [(l2_norm(f), FAST.log_envelope(t, rate)) for t, f in zip(traj.times, traj.fields)]
        assert_report(check_fast_bound(traj, FAST, A, 1e-6), traj.times, rows, 1e-6, extras)


class TestCertificateJson:
    """Field-derived serialization must keep exactly these keys."""

    @staticmethod
    def _assert_matches_asdict(cert, kind):
        """to_json is the dataclasses.asdict form, key order and JSON text included, and owns its nested values."""
        want = asdict(cert) if kind is None else {"kind": kind, **asdict(cert)}
        blob = cert.to_json()
        assert blob == want
        assert list(blob) == list(want)
        assert json.dumps(blob) == json.dumps(want)
        # emptying the blob's dicts and records leaves the certificate as it was
        for value in blob.values():
            for item in [value] if isinstance(value, dict) else value if isinstance(value, tuple) else []:
                item.clear()
        assert cert.to_json() == want

    @pytest.mark.parametrize("kx, ky", [(1, 0), (0, 1)], ids=["x_modes", "heat_only"])
    def test_c2_matches_asdict(self, kx, ky):
        self._assert_matches_asdict(c2_certificate(_field(kx, ky), 1.0, 0.1), "c2")

    def test_mix_matches_asdict(self):
        rho0 = _field(1, 0)
        self._assert_matches_asdict(mixing_certificate(rho0, 1.0, 0.1, c2_certificate(rho0, 1.0, 0.1).c2), "mix")

    @pytest.mark.parametrize("kx, ky", [(1, 0), (0, 1)], ids=["mode", "stationary"])
    def test_inviscid_matches_asdict(self, kx, ky):
        self._assert_matches_asdict(inviscid_certificate(_field(kx, ky), preset_shear("couette")), "inviscid")

    def test_fast_matches_asdict(self):
        raw = json.loads((ROOT / "scenarios" / "extra" / "fast_shear_mean.json").read_text())
        raw["cutoff"] = 4
        self._assert_matches_asdict(harness._certify(harness.Scenario.from_json(raw))["fast"], "fast")

    def test_nu_scaling_row_matches_asdict(self):
        for row in nu_scaling_report(_field(1, 0), 1.0, [0.1, 0.05]):
            self._assert_matches_asdict(row, None)

    def test_c2_x_branch(self):
        blob = c2_certificate(_field(1, 0), 1.0, 0.1).to_json()
        assert blob["branch"] == "x_modes"
        assert sorted(blob) == sorted(C2_KEYS)
        assert blob["records"] and all(sorted(r) == sorted(MODE_KEYS) for r in blob["records"])
        json.dumps(blob)

    def test_c2_heat_branch(self):
        blob = c2_certificate(_field(0, 1), 0.0, 0.1).to_json()
        assert blob["branch"] == "heat_only"
        assert sorted(blob) == sorted(C2_KEYS)
        assert blob["records"] and all(sorted(r) == sorted(HEAT_MODE_KEYS) for r in blob["records"])

    def test_mix(self):
        rho0 = _field(1, 0)
        blob = mixing_certificate(rho0, 1.0, 0.1, c2_certificate(rho0, 1.0, 0.1).c2).to_json()
        assert sorted(blob) == sorted(MIX_KEYS)
        assert blob["modes"] and all(sorted(m) == sorted(MIX_MODE_KEYS) for m in blob["modes"])
        assert blob["kind"] == "mix"

    @pytest.mark.parametrize("kx, ky, stationary", [(1, 0, False), (0, 1, True)])
    def test_inviscid(self, kx, ky, stationary):
        blob = inviscid_certificate(_field(kx, ky), preset_shear("couette")).to_json()
        assert blob["stationary"] is stationary
        assert sorted(blob) == sorted(INVISCID_KEYS)

    def test_fast(self):
        raw = json.loads((ROOT / "scenarios" / "extra" / "fast_shear_mean.json").read_text())
        raw["cutoff"] = 4
        blob = harness._certify(harness.Scenario.from_json(raw))["fast"].to_json()
        assert sorted(blob) == sorted(FAST_KEYS)
        assert blob["kind"] == "fast"
        json.dumps(blob)
