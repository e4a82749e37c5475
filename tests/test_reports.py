import json
import math
from pathlib import Path

import pytest

from mixlab import harness
from mixlab.certificates import c2_certificate, mixing_certificate
from mixlab.flows import preset_shear
from mixlab.inviscid import inviscid_certificate
from mixlab.reports import make_report
from mixlab.spectral import HarmonicTerm, Lattice, field_from_terms

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
        rep = make_report("s", "b", {}, [(0.0, None), (1.0, None)], lambda t, f: (math.nan, -t), 1e-6)
        assert rep.verdict == "FAIL"
        assert rep.min_margin == 0.0
        assert [s.margin for s in rep.samples] == [0.0, 0.0]
        blob = json.loads(harness.json_text(rep.to_json()))
        json.dumps(blob, allow_nan=False)
        assert [s[1] for s in blob["samples"]] == [None, None]

    def test_nan_envelope_fails_with_zero_margin(self):
        rows = {0.0: (1.0, 0.0), 1.0: (1.0, math.nan)}
        rep = make_report("s", "b", {}, [(0.0, None), (1.0, None)], lambda t, f: rows[t], 1e-6)
        assert rep.verdict == "FAIL"
        assert rep.min_margin == 0.0
        assert rep.samples[0].margin == 1.0
        blob = json.loads(harness.json_text(rep.to_json()))
        json.dumps(blob, allow_nan=False)
        assert blob["samples"][1][2] is None

    def test_no_samples_serializes_infinite_margin_as_null(self):
        rep = make_report("s", "b", {"c": math.inf}, [], lambda t, f: (1.0, 0.0), 1e-6)
        assert rep.min_margin == math.inf
        blob = json.loads(harness.json_text(rep.to_json()))
        assert blob["min_margin"] is None and blob["certificate"] == {"c": None}


class TestCertificateJson:
    """Field-derived serialization must keep exactly these keys."""

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
