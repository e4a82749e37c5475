import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mixlab import cli, harness
from mixlab.cli import main as cli_main
from mixlab.harness import (
    Scenario,
    SchemaError,
    corpus_run,
    run,
    write_timeseries_csv,
)
from mixlab.spectral import HarmonicTerm, Lattice, field_from_terms, field_to_json

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "scenarios" / "corpus"
EXTRA_DIR = ROOT / "scenarios" / "extra"
# the environment of a subprocess that imports mixlab from this checkout, installed or not
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def shipped(name: str) -> dict:
    """The JSON of the scenario file ``name`` shipped in scenarios/corpus or scenarios/extra."""
    (path,) = ROOT.glob(f"scenarios/*/{name}.json")
    return json.loads(path.read_text())


def scenario_with(name: str, key: str, value) -> dict:
    """A shipped scenario's JSON with the field at the dotted ``key`` set to ``value``.

    A part of ``key`` made of digits indexes a list.
    """
    raw = shipped(name)
    *parents, leaf = (int(part) if part.isdigit() else part for part in key.split("."))
    node = raw
    for part in parents:
        node = node[part]
    node[leaf] = value
    return raw


class TestSchema:
    def test_missing_field_paths(self):
        with pytest.raises(SchemaError, match="missing field: name"):
            Scenario.from_json({})
        with pytest.raises(SchemaError, match="missing field: lattice.kmax"):
            Scenario.from_json({"name": "x", "regime": "inviscid", "lattice": {"lmax": 4}})
        base = {
            "name": "x",
            "regime": "diffusive_shear",
            "lattice": {"kmax": 2, "lmax": 2},
            "initial_data": {"terms": [{"ampl": 1.0, "kx": 0, "ky": 1}]},
            "shear": "zero",
            "times": {"t_max": 1.0, "n": 5},
        }
        with pytest.raises(SchemaError, match="missing field: nu"):
            Scenario.from_json(base)

    def test_regime_consistency(self):
        bad = shipped("inviscid_cosx_siny")
        bad["nu"] = 0.1
        with pytest.raises(SchemaError, match="nu must be absent"):
            Scenario.from_json(bad)
        bad2 = shipped("heat_cosy")
        bad2["A"] = 10.0
        with pytest.raises(SchemaError, match="A only applies"):
            Scenario.from_json(bad2)

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("heat_cosy", "cutoff", 8, "cutoff only applies to the fast_oscillation regime"),
            ("heat_cosy", "eta", 0.5, "eta only applies to the fast_oscillation regime"),
            ("inviscid_cosx_siny", "dt", 0.01, "dt must be absent for the inviscid regime"),
            ("inviscid_cosx_siny", "cutoff", 8, "cutoff only applies to the fast_oscillation regime"),
            ("inviscid_cosx_siny", "eta", 0.5, "eta only applies to the fast_oscillation regime"),
        ],
        ids=["diffusive_cutoff", "diffusive_eta", "inviscid_dt", "inviscid_cutoff", "inviscid_eta"],
    )
    def test_field_the_regime_does_not_read_rejected(self, name, key, value, message):
        with pytest.raises(SchemaError, match=f"invalid field: {message}"):
            Scenario.from_json(scenario_with(name, key, value))

    def test_unread_fields_are_none(self):
        inviscid = Scenario.from_json(shipped("inviscid_cosx_siny"))
        assert (inviscid.nu, inviscid.A, inviscid.dt, inviscid.eta, inviscid.cutoff) == (None,) * 5
        heat = Scenario.from_json(shipped("heat_cosy"))
        assert (heat.nu, heat.A, heat.eta, heat.cutoff) == (0.1, None, None, None)
        raw = shipped("fast_averaging_study")
        del raw["cutoff"]
        assert Scenario.from_json(raw).cutoff == 16

    def test_unknown_regime(self):
        with pytest.raises(SchemaError, match="regime"):
            Scenario.from_json({"name": "x", "regime": "warp"})


    @pytest.mark.parametrize("dt", [0.0, -0.005])
    def test_nonpositive_dt_rejected(self, dt):
        raw = shipped("sinshear_cosx")
        raw["dt"] = dt
        with pytest.raises(SchemaError, match="dt must be positive"):
            Scenario.from_json(raw)

    @pytest.mark.parametrize("margin", [1.0, 1.5, -0.1, float("nan"), float("inf")])
    def test_margin_outside_unit_interval_rejected(self, margin):
        raw = shipped("heat_cosy")
        raw["tolerances"] = {"margin": margin}
        with pytest.raises(SchemaError, match="tolerances.margin"):
            Scenario.from_json(raw)

    @pytest.mark.parametrize("name", ["heat_cosy", "inviscid_cosx_siny"])
    @pytest.mark.parametrize(
        "times", [[0.0, float("nan")], [0.0, float("inf")], {"t_max": float("nan"), "n": 1}]
    )
    def test_nonfinite_times_rejected(self, name, times):
        raw = shipped(name)
        raw["times"] = times
        with pytest.raises(SchemaError, match="times"):
            Scenario.from_json(raw)

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("heat_cosy", "nu", 0.0),
            ("heat_cosy", "nu", -0.1),
            ("heat_cosy", "nu", float("nan")),
            ("heat_cosy", "nu", float("inf")),
            ("fast_averaging_study", "nu", float("nan")),
            ("fast_averaging_study", "A", float("nan")),
            ("fast_averaging_study", "A", float("inf")),
            ("fast_averaging_study", "A", -1.0),
            ("fast_averaging_study", "A", 0.0),
            ("fast_averaging_study", "eta", 0.0),
            ("fast_averaging_study", "eta", -0.1),
            ("fast_averaging_study", "eta", float("nan")),
            ("fast_averaging_study", "eta", 1.5),
            ("fast_averaging_study", "cutoff", 0),
            ("fast_averaging_study", "cutoff", -4),
            ("sinshear_cosx", "dt", float("inf")),
            # a dotted key lies inside the flow spec; the message names its whole path
            ("timeshear_cosx", "shear.period", float("inf")),
            ("timeshear_cosx", "shear.period", float("nan")),
            ("timeshear_cosx", "shear.period", -1.0),
            ("timeshear_cosx", "shear.bounds.M", float("nan")),
            ("timeshear_cosx", "shear.bounds.w11", float("inf")),
            ("sinshear_cosx", "shear.bounds.M", -1.0),
            ("fast_shear_mean", "flow.period", float("inf")),
            ("fast_shear_mean", "flow.bounds.lip", float("nan")),
            ("fast_averaging_study", "flow.bounds.lip", float("nan")),
        ],
    )
    def test_out_of_range_parameter_rejected(self, name, key, value):
        raw = scenario_with(name, key, value)
        with pytest.raises(SchemaError, match=f"invalid field: {re.escape(key)} must be"):
            Scenario.from_json(raw)

    @pytest.mark.parametrize("form", ["terms", "coeffs"])
    def test_fast_datum_beyond_cutoff_rejected(self, form):
        """A terms datum must lie within the cutoff, and a coeffs datum's whole lattice too: the spectrum
        rebuilds the one on the cutoff lattice and embeds the other there."""
        raw = shipped("fast_shear_mean")
        extent = 4
        if form == "terms":
            raw["initial_data"]["terms"][0]["ky"] = extent
        else:
            raw["lattice"] = {"kmax": extent, "lmax": extent}
            raw["initial_data"] = field_to_json(field_from_terms(Lattice(extent, extent), [HarmonicTerm(1.0, 0, 1)]))
        raw["cutoff"] = extent - 1
        with pytest.raises(SchemaError, match=f"invalid field: cutoff must be at least {extent} to hold initial_data"):
            Scenario.from_json(raw)
        raw["cutoff"] = extent
        _, spectrum = harness._fast_spectrum(Scenario.from_json(raw))  # a cutoff that reaches the datum is enough
        assert spectrum.Q > 0.0
        for name in ("fast_shear_mean", "fast_averaging_study"):
            assert Scenario.from_file(EXTRA_DIR / f"{name}.json").cutoff >= 1

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("timeshear_cosx", "shear.terms.0", {"ky": 1, "phase_mode": "sin"},
             r"shear\.terms\[0\]\.ampl must be given"),
            ("timeshear_cosx", "shear.bounds.M", "big", r"shear\.bounds\.M must be a number"),
            ("timeshear_cosx", "shear.terms.0.ky", "x", r"shear\.terms\[0\]\.ky must be a number"),
            ("timeshear_cosx", "shear.terms.0.ky", 1.5, r"shear\.terms\[0\]\.ky must be an integer"),
            ("timeshear_cosx", "shear.terms.0.ampl", None, r"shear\.terms\[0\]\.ampl must be a number"),
            ("timeshear_cosx", "shear.terms", {"ky": 1}, r"shear\.terms must be a list"),
            ("timeshear_cosx", "shear.terms.0", 1.0, r"shear\.terms\[0\] must be an object"),
            ("timeshear_cosx", "shear.period", "2pi", r"shear\.period must be a number"),
            ("timeshear_cosx", "shear.bounds", [1.0], r"shear\.bounds must be an object"),
            ("timeshear_cosx", "shear", 1.0, "shear must be an object"),
            ("timeshear_cosx", "shear.terms.0.kx", 1, r"shear\.terms\[0\]\.kx must be 0 in a shear, got 1"),
            ("timeshear_cosx", "shear.kind", "flow3d", r"shear\.kind must be shear or flow2d"),
            ("fast_shear_mean", "flow.terms.1", {"ampl": 1.0, "ky": 0}, r"flow\.terms\[1\]\.kx must be given"),
            ("fast_shear_mean", "flow.terms.0.kx", True, r"flow\.terms\[0\]\.kx must be a number"),
            ("fast_shear_mean", "flow.bounds.lip", "2", r"flow\.bounds\.lip must be a number"),
            ("timeshear_cosx", "shear.terms.0.ampl", float("nan"), r"shear\.terms\[0\]\.ampl must be finite"),
            ("fast_averaging_study", "flow.terms.0.ampl", float("inf"), r"flow\.terms\[0\]\.ampl must be finite"),
            # the same bad ampl in the datum and in the flow: the message names the list
            ("fast_shear_mean", "initial_data.terms.0.ampl", "x", r"initial_data\.terms\[0\]\.ampl must be a number"),
            ("fast_shear_mean", "flow.terms.0.ampl", "x", r"flow\.terms\[0\]\.ampl must be a number"),
            # the fields outside the flow spec go through the same typed reader
            ("heat_cosy", "nu", "x", "nu must be a number, got 'x'"),
            ("heat_cosy", "nu", True, "nu must be a number, got True"),
            ("heat_cosy", "nu", 10**400, "nu must be within the float range"),
            ("heat_cosy", "lattice.kmax", "x", "lattice.kmax must be a number"),
            ("heat_cosy", "lattice.kmax", 1.5, "lattice.kmax must be an integer"),
            ("heat_cosy", "lattice.kmax", 0, "lattice cutoffs must be >= 1"),
            ("heat_cosy", "lattice", 5, "lattice must be an object"),
            ("sinshear_cosx", "dt", [1], r"dt must be a number, got \[1\]"),
            ("heat_cosy", "times", 5, "times must be a list or an object"),
            ("heat_cosy", "times.n", 2.7, "times.n must be an integer"),
            ("heat_cosy", "times.n", -1, "times.n must be at least 1"),
            ("heat_cosy", "times", [0.0, "1"], r"times\[1\] must be a number"),
            ("fast_averaging_study", "cutoff", 2.5, "cutoff must be an integer"),
            ("fast_averaging_study", "eta", "0.5", "eta must be a number"),
            ("heat_cosy", "tolerances", 5, "tolerances must be an object"),
            ("heat_cosy", "initial_data.terms.0.kind", "tan", "harmonic kind must be cos or sin"),
            ("heat_cosy", "initial_data.terms.0.ky", 9, r"harmonic \(0,9\) outside lattice"),
            ("heat_cosy", "initial_data.terms.0.kx", 0.5, r"initial_data\.terms\[0\]\.kx must be an integer"),
            ("heat_cosy", "initial_data.terms", 5, r"initial_data\.terms must be a list"),
            ("sinshear_cosx", "initial_data.terms.0.ampl", float("nan"),
             r"initial_data\.terms\[0\]\.ampl must be finite"),
            ("sinshear_cosx", "initial_data.terms.0.ampl", float("inf"),
             r"initial_data\.terms\[0\]\.ampl must be finite"),
            # a datum given by its coefficients [k, l, re, im]
            ("heat_cosy", "initial_data", {"kmax": 1, "lmax": 1, "coeffs": [[0, 1, "x", 0.0]]},
             r"initial_data\.coeffs\[0\] must be a number"),
            ("heat_cosy", "initial_data", {"kmax": 1, "lmax": 1, "coeffs": [[0, 5, 0.5, 0.0]]},
             r"initial_data\.coeffs\[0\] \(0,5\) outside lattice"),
            ("heat_cosy", "initial_data", {"kmax": 1, "lmax": 1, "coeffs": [[0, 1, float("nan"), 0.0]]},
             r"initial_data\.coeffs must be finite"),
            # on a lattice of its own: the run would evolve on (1, 1), not on the scenario's (2, 4)
            ("heat_cosy", "initial_data", {"kmax": 1, "lmax": 1, "coeffs": [[0, 1, 0.5, 0.0]]},
             r"initial_data \(kmax, lmax\) = \(1, 1\) must equal lattice \(kmax, lmax\) = \(2, 4\)"),
            # the datum's messages name its key
            ("heat_cosy", "initial_data", {"kmax": 2, "lmax": 4, "coeffs": [[0, 0, 0.5, 0.0]]},
             r"initial_data\.coeffs \(0,0\) entry must be 0 in a mean-zero field"),
            ("heat_cosy", "initial_data", {"kmax": 0, "lmax": 4, "coeffs": [[0, 1, 0.5, 0.0]]},
             r"initial_data\.kmax must be at least 1, got 0$"),
            # a key no reader reads would run the scenario with that field's default
            ("heat_cosy", "nuu", 0.3, r"scenario has unknown key\(s\) 'nuu'"),
            ("heat_cosy", "tolerances", {"marg": 0.5},
             r"tolerances has unknown key\(s\) 'marg'; it reads only 'margin'"),
            ("timeshear_cosx", "shear.perod", 1.0, r"shear has unknown key\(s\) 'perod'"),
            ("timeshear_cosx", "shear.terms.0.phse_mode", "cos",
             r"shear\.terms\[0\] has unknown key\(s\) 'phse_mode'"),
            ("sinshear_cosx", "shear.bounds.Mx", 3,
             r"shear\.bounds has unknown key\(s\) 'Mx'; it reads only 'M', 'w11'$"),
            ("sinshear_cosx", "lattice.nmax", 2, r"lattice has unknown key\(s\) 'nmax'"),
            ("heat_cosy", "initial_data.terms.0.phase", 0.3, r"initial_data\.terms\[0\] has unknown key\(s\) 'phase'"),
            ("heat_cosy", "initial_data.coeffs", [[0, 1, 0.5, 0.0]],
             r"initial_data has unknown key\(s\) 'coeffs'; it reads only 'terms'"),
            ("fast_shear_mean", "flow.bounds.M", 1.0, r"flow\.bounds has unknown key\(s\) 'M'; it reads only 'lip'$"),
            ("heat_cosy", "times.t_min", 0.5, r"times has unknown key\(s\) 't_min'"),
            ("inviscid_cosx_siny", "flow", "cellular", r"scenario has unknown key\(s\) 'flow'"),
        ],
        ids=[
            "no_ampl", "M_string", "ky_string", "ky_fraction", "ampl_null", "terms_object", "term_number",
            "period_string", "bounds_list", "spec_number", "shear_kx_nonzero", "spec_kind", "no_kx", "kx_bool",
            "lip_string",
            "ampl_nan", "ampl_inf", "datum_ampl_string", "flow_ampl_string",
            "nu_string", "nu_bool", "nu_huge_integer", "kmax_string", "kmax_fraction", "kmax0", "lattice_number",
            "dt_list", "times_number", "n_fraction", "n_negative", "time_string", "cutoff_fraction", "eta_string",
            "tolerances_number", "kind_tan", "term_outside_lattice", "kx_fraction",
            "terms_number", "datum_ampl_nan", "datum_ampl_inf", "coeff_string", "coeff_outside_lattice",
            "coeff_nan", "coeff_lattice_mismatch", "coeff_mean", "coeff_kmax0",
            "unknown_scenario_key", "unknown_tolerance", "unknown_spec_key", "unknown_term_key", "unknown_bound",
            "unknown_lattice_key", "unknown_datum_term_key", "datum_terms_and_coeffs", "bound_of_other_kind",
            "unknown_times_key", "spec_of_other_regime",
        ],
    )
    def test_malformed_flow_spec_rejected(self, name, key, value, message):
        with pytest.raises(SchemaError, match=f"invalid field: {message}"):
            Scenario.from_json(scenario_with(name, key, value))

    @pytest.mark.parametrize("name, lattice", [("heat_cosy", (2, 4)), ("sinshear_cosx", (3, 16))])
    def test_complex_coeffs_datum_rejected(self, name, lattice):
        """The single mode e^{i(x+y)} lacks the conjugate symmetry of a real field."""
        datum = {"kmax": lattice[0], "lmax": lattice[1], "coeffs": [[1, 1, 0.5, 0.0]]}
        with pytest.raises(SchemaError, match=r"initial_data\.coeffs .*conjugate symmetry"):
            Scenario.from_json(scenario_with(name, "initial_data", datum))
        datum["coeffs"].append([-1, -1, 0.5, 0.0])  # with its conjugate partner the datum is real
        assert Scenario.from_json(scenario_with(name, "initial_data", datum)).rho0[(1, 1)] == 0.5

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b", 5])
    def test_name_must_be_plain_stem(self, name):
        raw = shipped("heat_cosy")
        raw["name"] = name
        with pytest.raises(SchemaError, match="plain file stem"):
            Scenario.from_json(raw)


class TestRun:
    def test_builtin_sharpness_margin_exactly_two(self):
        report = run(Scenario.from_json(shipped("sharpness_p1_nu025")))
        assert report.verdict == "PASS"
        mix = report.checks["mixing_floor"]
        assert mix.extras["slack_factor"] == pytest.approx(2.0, abs=1e-12)
        for s in mix.samples:
            assert s.margin == pytest.approx(2.0, abs=1e-12)

    def test_builtin_heat_cosy_passes_c2(self):
        report = run(Scenario.from_json(shipped("heat_cosy")))
        assert report.verdict == "PASS"
        c2 = report.checks["c2_floor"]
        assert c2.certificate["c2"] == pytest.approx(0.2, abs=1e-12)
        assert c2.min_margin >= 1.0 - 1e-6

    def test_inviscid_scenario(self):
        report = run(Scenario.from_json(shipped("inviscid_cosx_siny")))
        assert report.verdict == "PASS"
        assert report.checks["inviscid"].extras["tail_ok"]
        assert report.checks["inviscid"].extras["mass_ok"]

    def test_fast_scenario_pipeline(self):
        raw = json.loads((EXTRA_DIR / "fast_shear_mean.json").read_text())
        raw["cutoff"] = 8  # keep the dense spectral work small here
        report = run(Scenario.from_json(raw))
        assert report.verdict == "PASS"
        fast = report.checks["fast_floor"]
        assert fast.extras["regime"] == "sharper_A_dependent"
        assert len(fast.extras["a0_terms"]) == 6

    def test_determinism_byte_identical(self):
        a = run(Scenario.from_json(shipped("heat_cosy"))).to_json()
        b = run(Scenario.from_json(shipped("heat_cosy"))).to_json()
        a["runtime"] = b["runtime"] = 0.0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_fast_determinism_byte_identical(self):
        raw = json.loads((EXTRA_DIR / "fast_shear_mean.json").read_text())
        raw["cutoff"] = 6
        a = run(Scenario.from_json(raw)).to_json()
        b = run(Scenario.from_json(raw)).to_json()
        a["runtime"] = b["runtime"] = 0.0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_timeseries_csv_columns(self, tmp_path):
        report = run(Scenario.from_json(shipped("heat_cosy")))
        out = tmp_path / "series.csv"
        write_timeseries_csv(report, out, kreport=2)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "l2", "hneg1", "mix_scale", "E_-2", "E_-1", "E_0", "E_1", "E_2"]
        assert len(rows) == 1 + 26


class TestCorpus:
    def test_shipped_corpus_all_pass(self, corpus_reports):
        assert len(corpus_reports) == 12
        for scenario, report in corpus_reports:
            assert report.verdict == "PASS", scenario.name

    def test_empty_directory(self, tmp_path):
        summary = corpus_run(tmp_path, out_dir=tmp_path / "reports")
        assert summary.rows == []
        assert summary.exit_code == 0

    def test_corrupted_file_becomes_error_row(self, tmp_path):
        (tmp_path / "good.json").write_text((CORPUS_DIR / "heat_cosy.json").read_text())
        (tmp_path / "bad.json").write_text("{not json")
        summary = corpus_run(tmp_path, out_dir=tmp_path / "reports")
        verdicts = {r["file"]: r["verdict"] for r in summary.rows}
        assert verdicts["good.json"] == "PASS"
        assert verdicts["bad.json"] == "ERROR"
        assert summary.exit_code == 1
        with open(tmp_path / "reports" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_escaping_name_writes_nothing_outside(self, tmp_path):
        src = tmp_path / "in"
        out = tmp_path / "reports"
        src.mkdir()
        raw = shipped("heat_cosy")
        raw["name"] = "../escaped"
        (src / "evil.json").write_text(json.dumps(raw))
        summary = corpus_run(src, out_dir=out)
        assert [r["verdict"] for r in summary.rows] == ["ERROR"]
        assert "plain file stem" in summary.rows[0]["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "reports"]
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]


class TestCli:
    def test_certify_c2(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = cli_main(
            ["certify", "c2", "--scenario", str(CORPUS_DIR / "heat_cosy.json"), "--out", str(out)]
        )
        assert rc == 0
        cert = json.loads(out.read_text())
        assert cert["c2"] == pytest.approx(0.2, abs=1e-12)

    def test_certify_c2_nu_scaling_csv(self, tmp_path):
        csv_path = tmp_path / "scaling.csv"
        rc = cli_main(
            [
                "certify",
                "c2",
                "--scenario",
                str(CORPUS_DIR / "heat_cosy.json"),
                "--out",
                str(tmp_path / "c.json"),
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["c2_over_nu"]) for r in rows] == pytest.approx([2.0, 2.0, 2.0])

    @pytest.mark.parametrize("kind", ["c2", "mix"])
    @pytest.mark.parametrize("route", ["scenario_file", "nu_flag"])
    def test_certify_csv_with_nu_above_one_exits_2(self, kind, route, tmp_path, capsys):
        """nu = 2 in the scenario, or --nu 1.5, is a valid scenario but has no nu-scaling table: bad input."""
        scenario = tmp_path / "nu2.json"
        scenario.write_text(json.dumps(scenario_with("heat_cosy", "nu", 2.0)))
        flags = [] if route == "scenario_file" else ["--nu", "1.5"]
        csv_path = tmp_path / "scaling.csv"
        rc = cli_main(["certify", kind, "--scenario", str(scenario), *flags, "--csv", str(csv_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "certify: --csv nu-scaling table: nu values must lie in (0, 1]\n"
        assert not csv_path.exists()

    def test_verify_inviscid_with_csv(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        rc = cli_main(
            [
                "verify",
                "inviscid",
                "--scenario",
                str(EXTRA_DIR / "inviscid_cosx_siny.json"),
                "--out",
                str(tmp_path / "rep.json"),
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "l2", "hneg1", "envelope"]
        assert len(rows) == 1 + 51
        assert [float(r[1]) for r in rows[1:]] == pytest.approx([math.sqrt(0.5)] * 51, rel=1e-14)

    def test_simulate_inviscid_csv_columns(self, tmp_path):
        csv_path = tmp_path / "series.csv"
        scenario = str(EXTRA_DIR / "inviscid_cosx_siny.json")
        rc = cli_main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "r.json"), "--csv", str(csv_path)])
        assert rc == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "l2", "hneg1", "mix_scale", "E_-2", "E_-1", "E_0", "E_1", "E_2"]
        assert len(rows) == 1 + 51
        assert [float(r[5]) for r in rows[1:]] == pytest.approx([0.25] * 51, rel=1e-14)

    def test_sharpness_command(self, tmp_path):
        out = tmp_path / "sharp.json"
        rc = cli_main(["sharpness", "--nu", "0.25", "--p", "1.0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["family"]["n"] == 4
        assert payload["certificate_c_star"] == pytest.approx(0.125)
        assert payload["measured_over_certified"] == pytest.approx(2.0, abs=1e-12)

    def test_sharpness_underflowed_datum_fails_with_valid_json(self, capsys):
        # cos(1000 y) decays like exp(-1000 t) and is exactly zero before t_max = 2
        rc = cli_main(["sharpness", "--nu", "0.001"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["fitted_decay_rate"] is None
        assert payload["checks"]["mixing_floor"]["verdict"] == "FAIL"
        assert payload["measured_over_certified"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n_times", ["1", "0"])
    def test_sharpness_needs_two_sample_times(self, n_times, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sharpness", "--nu", "0.25", "--n-times", n_times])
        assert exc.value.code == 2
        assert "--n-times" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["simulate", "--scenario", "{bad}"], ["sharpness", "--nu", "0.25", "--t-max", "0"]],
        ids=["simulate_unordered_times", "sharpness_zero_t_max"],
    )
    def test_schema_error_exits_2_with_one_line(self, command, tmp_path, capsys):
        raw = json.loads((CORPUS_DIR / "heat_cosy.json").read_text())
        raw["times"] = [0.0, 2.0, 1.0]
        bad = tmp_path / "bad_times.json"
        bad.write_text(json.dumps(raw))
        rc = cli_main([arg.format(bad=bad) for arg in command])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        want = "invalid field: times must be a nonempty finite increasing list with times[0] >= 0"
        assert captured.err == f"{command[0]}: {want}\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["verify", "c2", "--scenario", str(CORPUS_DIR / "heat_cosy.json"), "--nu=0"],
            ["verify", "c2", "--scenario", str(CORPUS_DIR / "heat_cosy.json"), "--nu=-0.1"],
            ["verify", "c2", "--scenario", str(CORPUS_DIR / "heat_cosy.json"), "--nu=nan"],
            ["verify", "c2", "--scenario", str(CORPUS_DIR / "heat_cosy.json"), "--nu=inf"],
            ["certify", "fast", "--scenario", str(EXTRA_DIR / "fast_averaging_study.json"), "--eta=-0.1"],
            ["certify", "fast", "--scenario", str(EXTRA_DIR / "fast_averaging_study.json"), "--eta=nan"],
            ["certify", "fast", "--scenario", str(EXTRA_DIR / "fast_averaging_study.json"), "--cutoff=0"],
            ["verify", "c2", "--scenario", str(CORPUS_DIR / "sinshear_cosx.json"), "--dt=inf"],
            # {name:key=value} stands for a copy of the scenario with one flow-spec field replaced
            ["verify", "c2", "--scenario", "{timeshear_cosx:shear.period=Infinity}"],
            ["verify", "c2", "--scenario", "{timeshear_cosx:shear.period=NaN}"],
            ["verify", "c2", "--scenario", "{timeshear_cosx:shear.period=-1}"],
            ["verify", "c2", "--scenario", "{timeshear_cosx:shear.bounds.M=NaN}"],
            ["verify", "fast", "--scenario", "{fast_averaging_study:flow.bounds.lip=NaN}"],
            ["verify", "c2", "--scenario", '{timeshear_cosx:shear.terms.0={"ky": 1, "phase_mode": "sin"}}'],
            ["verify", "c2", "--scenario", '{timeshear_cosx:shear.bounds.M="big"}'],
            ["verify", "c2", "--scenario", '{timeshear_cosx:shear.terms.0.ky="x"}'],
            ["verify", "c2", "--scenario", '{heat_cosy:nu="x"}'],
            ["verify", "c2", "--scenario", '{heat_cosy:lattice.kmax="x"}'],
            ["verify", "c2", "--scenario", "{sinshear_cosx:dt=[1]}"],
            ["verify", "c2", "--scenario", "{heat_cosy:times=5}"],
            ["verify", "c2", "--scenario", "{heat_cosy:lattice.kmax=1.5}"],
            ["verify", "c2", "--scenario", "{heat_cosy:times.n=2.7}"],
            ["verify", "fast", "--scenario", "{fast_averaging_study:cutoff=2.5}"],
            ["verify", "c2", "--scenario", "{heat_cosy:nu=true}"],
            ["verify", "c2", "--scenario", "{heat_cosy:lattice.kmax=0}"],
            ["verify", "c2", "--scenario", '{heat_cosy:initial_data.terms.0.kind="tan"}'],
            ["verify", "c2", "--scenario", "{heat_cosy:initial_data.terms.0.ky=9}"],
            ["verify", "c2", "--scenario", "{sinshear_cosx:initial_data.terms.0.ampl=NaN}"],
            ["verify", "c2", "--scenario", "{sinshear_cosx:initial_data.terms.0.ampl=Infinity}"],
            ["verify", "c2", "--scenario", "{heat_cosy:nuu=0.3}"],
        ],
        ids=[
            "nu0", "nu_negative", "nu_nan", "nu_inf", "eta_negative", "eta_nan", "cutoff0", "dt_inf",
            "period_inf", "period_nan", "period_negative", "M_nan", "lip_nan",
            "term_without_ampl", "M_string", "ky_string",
            "nu_string", "kmax_string", "dt_list", "times_number", "kmax_fraction", "n_fraction",
            "cutoff_fraction", "nu_bool", "kmax0", "kind_tan", "term_outside_lattice", "ampl_nan", "ampl_inf",
            "unknown_key",
        ],
    )
    def test_bad_parameter_override_exits_2(self, command, tmp_path, capsys):
        if command[-1].startswith("{"):
            name, edit = command[-1][1:-1].split(":", 1)
            key, value = edit.split("=", 1)
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps(scenario_with(name, key, json.loads(value))))
            command = [*command[:-1], str(bad)]
        rc = cli_main(command)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"{command[0]}: invalid field: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [["spectrum"], ["certify", "fast"], ["verify", "fast"], ["simulate"]])
    def test_datum_beyond_cutoff_override_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(scenario_with("fast_shear_mean", "initial_data.terms.0.ky", 3)))
        rc = cli_main([*command, "--scenario", str(path), "--cutoff", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"{command[0]}: invalid field: cutoff must be at least 3 to hold initial_data, got 2\n"

    def test_complex_coeffs_datum_exits_2(self, tmp_path, capsys):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(scenario_with(
            "heat_cosy", "initial_data", {"kmax": 2, "lmax": 4, "coeffs": [[1, 1, 0.5, 0.0]]}
        )))
        rc = cli_main(["verify", "c2", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "initial_data.coeffs" in captured.err and "conjugate symmetry" in captured.err

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not_json"])
    def test_unreadable_scenario_file_exits_2(self, content, tmp_path, capsys):
        path = tmp_path / "f.json"
        if content is not None:
            path.write_text(content)
        rc = cli_main(["verify", "c2", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"verify: cannot read scenario file {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, scenario, rejected_by",
        [
            (["spectrum", "--dt", "5"], "fast_shear_mean", "argparse"),
            (["spectrum", "--eta", "0.5"], "fast_shear_mean", "argparse"),
            (["spectrum", "--csv", "s.csv"], "fast_shear_mean", "argparse"),
            (["spectrum", "--kreport", "9"], "fast_shear_mean", "argparse"),
            (["certify", "fast", "--dt", "5"], "fast_shear_mean", "argparse"),
            (["certify", "c2", "--kreport", "9"], "heat_cosy", "argparse"),
            (["certify", "inviscid", "--eta", "0.3"], "inviscid_cosx_siny", "schema"),
            (["certify", "inviscid", "--cutoff", "5"], "inviscid_cosx_siny", "schema"),
            (["certify", "inviscid", "--csv", "x.csv"], "inviscid_cosx_siny", "argparse"),
            (["certify", "c2", "--eta", "0.3"], "heat_cosy", "schema"),
            (["certify", "c2", "--cutoff", "5"], "heat_cosy", "schema"),
            (["certify", "mix", "--eta", "0.3"], "heat_cosy", "schema"),
            (["certify", "mix", "--cutoff", "5"], "heat_cosy", "schema"),
            (["certify", "fast", "--csv", "x.csv"], "fast_shear_mean", "argparse"),
            (["verify", "inviscid", "--eta", "0.3"], "inviscid_cosx_siny", "schema"),
            (["verify", "inviscid", "--cutoff", "5"], "inviscid_cosx_siny", "schema"),
            (["verify", "inviscid", "--dt", "0.5"], "inviscid_cosx_siny", "schema"),
            (["verify", "inviscid", "--kreport", "5"], "inviscid_cosx_siny", "argparse"),
            (["verify", "c2", "--eta", "0.3"], "heat_cosy", "schema"),
            (["verify", "c2", "--cutoff", "5"], "heat_cosy", "schema"),
            (["verify", "mix", "--eta", "0.3"], "heat_cosy", "schema"),
            (["verify", "mix", "--cutoff", "5"], "heat_cosy", "schema"),
            (["simulate", "--eta", "0.3"], "inviscid_cosx_siny", "schema"),
            (["simulate", "--cutoff", "5"], "inviscid_cosx_siny", "schema"),
            (["simulate", "--dt", "0.5"], "inviscid_cosx_siny", "schema"),
            (["simulate", "--eta", "0.3"], "heat_cosy", "schema"),
            (["simulate", "--cutoff", "5"], "heat_cosy", "schema"),
        ],
        ids=[
            "spectrum_dt", "spectrum_eta", "spectrum_csv", "spectrum_kreport", "certify_dt", "certify_kreport",
            "certify_inviscid_eta", "certify_inviscid_cutoff", "certify_inviscid_csv",
            "certify_c2_eta", "certify_c2_cutoff", "certify_mix_eta", "certify_mix_cutoff", "certify_fast_csv",
            "verify_inviscid_eta", "verify_inviscid_cutoff", "verify_inviscid_dt", "verify_inviscid_kreport",
            "verify_c2_eta", "verify_c2_cutoff", "verify_mix_eta", "verify_mix_cutoff",
            "simulate_inviscid_eta", "simulate_inviscid_cutoff", "simulate_inviscid_dt",
            "simulate_diffusive_eta", "simulate_diffusive_cutoff",
        ],
    )
    def test_option_a_command_does_not_read_exits_2(self, command, scenario, rejected_by, capsys):
        """An option that would be ignored is an argparse error when the sub-command never reads it,
        and a schema error naming the field when the scenario's regime does not."""
        (path,) = ROOT.glob(f"scenarios/*/{scenario}.json")
        argv = [*command, "--scenario", str(path)]
        if rejected_by == "argparse":
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            rc = exc.value.code
        else:
            rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        if rejected_by == "argparse":
            assert f"unrecognized arguments: {' '.join(command[-2:])}" in captured.err
        else:
            assert captured.err.startswith(f"{command[0]}: invalid field: {command[-2][2:]} ")
            assert captured.err.count("\n") == 1

    def test_verify_fast_reads_cutoff_and_eta(self, monkeypatch, capsys):
        cutoffs = []
        fast_spectrum = harness._fast_spectrum

        def recorded(scenario):
            cutoffs.append(scenario.cutoff)
            return fast_spectrum(scenario)

        monkeypatch.setattr(harness, "_fast_spectrum", recorded)
        scenario = str(EXTRA_DIR / "fast_shear_mean.json")
        rc = cli_main(["verify", "fast", "--scenario", scenario, "--cutoff", "6", "--eta", "0.5"])
        assert rc == 0
        assert cutoffs == [6]
        assert json.loads(capsys.readouterr().out)["fast_floor"]["certificate"]["eta"] == 0.5

    @pytest.mark.parametrize("path", [CORPUS_DIR / "heat_cosy.json", EXTRA_DIR / "inviscid_cosx_siny.json",
                                      EXTRA_DIR / "fast_averaging_study.json"], ids=lambda p: p.stem)
    def test_simulate_reads_csv_and_kreport(self, path, tmp_path):
        csv_path = tmp_path / "series.csv"
        rc = cli_main(["simulate", "--scenario", str(path), "--csv", str(csv_path), "--kreport", "1",
                       "--out", str(tmp_path / "r.json")])
        assert rc == 0
        with open(csv_path) as fh:
            assert next(csv.reader(fh)) == ["t", "l2", "hneg1", "mix_scale", "E_-1", "E_0", "E_1"]

    def test_negative_kreport_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--scenario", str(CORPUS_DIR / "heat_cosy.json"), "--kreport", "-3",
                      "--csv", str(csv_path)])
        assert exc.value.code == 2
        assert "--kreport: must be at least 0, got -3" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_timeseries_csv_rejects_negative_kreport(self, tmp_path):
        """scripts/mixing_portrait.py passes its own --kreport, so the writer checks it too."""
        report = run(Scenario.from_json(shipped("heat_cosy")))
        with pytest.raises(ValueError, match="kreport must be at least 0, got -1"):
            write_timeseries_csv(report, tmp_path / "series.csv", kreport=-1)
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--nu", "0"], "0 < nu <= 1"),
            (["--nu", "-0.1"], "0 < nu <= 1"),
            (["--nu", "nan"], "0 < nu <= 1"),
            (["--nu", "1.5"], "0 < nu <= 1"),
            (["--nu", "0.25", "--p", "0"], "finite p > 0"),
            (["--nu", "0.25", "--p", "nan"], "finite p > 0"),
            (["--nu", "0.25", "--p", "inf"], "finite p > 0"),
        ],
    )
    def test_sharpness_family_out_of_range_exits_2(self, flags, reason, capsys):
        rc = cli_main(["sharpness", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"sharpness: sharpness family requires {reason}\n"

    def test_failed_audit_fails_check_and_verify(self, monkeypatch, capsys):
        """A check whose margins hold but whose tail audit fails is FAIL, and verify exits 1."""
        certify = harness._certify

        def zero_growth(scenario):
            return {"inviscid": dataclasses.replace(certify(scenario)["inviscid"], A=0.0, B=0.0)}

        monkeypatch.setattr(harness, "_certify", zero_growth)
        check = run(Scenario.from_json(shipped("inviscid_cosx_siny"))).checks["inviscid"]
        assert check.min_margin >= 1.0 - check.tol
        assert not check.extras["tail_ok"]
        assert check.verdict == "FAIL"
        rc = cli_main(["verify", "inviscid", "--scenario", str(EXTRA_DIR / "inviscid_cosx_siny.json")])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["inviscid"]["verdict"] == "FAIL"

    def test_simulate_heat(self, tmp_path):
        rc = cli_main(
            [
                "simulate",
                "--scenario",
                str(CORPUS_DIR / "heat_cosy.json"),
                "--out",
                str(tmp_path / "r.json"),
                "--csv",
                str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 0

    def test_corpus_command(self, tmp_path, capsys):
        src = tmp_path / "dir"
        src.mkdir()
        (src / "one.json").write_text((CORPUS_DIR / "heat_cosy.json").read_text())
        rc = cli_main(["corpus", str(src), "--out", str(tmp_path / "reports")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "1 pass, 0 fail, 0 error" in captured.out

    def test_certify_fast_itemizes_threshold(self, tmp_path):
        out = tmp_path / "fast.json"
        rc = cli_main(
            [
                "certify",
                "fast",
                "--scenario",
                str(EXTRA_DIR / "fast_shear_mean.json"),
                "--cutoff",
                "8",
                "--eta",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        cert = json.loads(out.read_text())
        assert len(cert["a0_terms"]) == 6
        assert cert["A0"] == pytest.approx(max(cert["a0_terms"].values()))
        assert cert["eta"] == 0.5
        assert "not rigorous" in cert["sylvester_flag"]

    @pytest.mark.parametrize("command", [["certify", "fast"], ["spectrum"]])
    def test_fast_command_rejects_scenario_without_flow(self, command, capsys):
        rc = cli_main(command + ["--scenario", str(CORPUS_DIR / "heat_cosy.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == " ".join(command) + " requires a fast_oscillation scenario (a 2D flow)\n"

    @pytest.mark.parametrize(
        "path, regime, n_mismatched",
        [
            (CORPUS_DIR / "heat_cosy.json", "diffusive_shear", 5),
            (EXTRA_DIR / "inviscid_cosx_siny.json", "inviscid", 7),
            (EXTRA_DIR / "fast_shear_mean.json", "fast_oscillation", 6),
        ],
        ids=["heat_cosy", "inviscid_cosx_siny", "fast_shear_mean"],
    )
    def test_regime_mismatch_exits_2_before_computing(self, path, regime, n_mismatched, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("computed on a mismatched scenario")

        for attr in ("run", "_certify", "_fast_spectrum"):
            monkeypatch.setattr(harness, attr, boom)
        kinds = {
            "inviscid": ("inviscid", "a shear and no nu"),
            "c2": ("diffusive_shear", "a shear and nu"),
            "mix": ("diffusive_shear", "a shear and nu"),
            "fast": ("fast_oscillation", "a 2D flow"),
        }
        commands = [([verb, kind], *kinds[kind]) for verb in ("certify", "verify") for kind in kinds]
        commands.append((["spectrum"], *kinds["fast"]))
        mismatched = [c for c in commands if c[1] != regime]
        assert len(mismatched) == n_mismatched
        for command, wanted, needs in mismatched:
            rc = cli_main(command + ["--scenario", str(path)])
            captured = capsys.readouterr()
            assert rc == 2, command
            assert captured.err == f"{' '.join(command)} requires a {wanted} scenario ({needs})\n"
            assert captured.out == ""

    def test_spectrum_command(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = cli_main(
            [
                "spectrum",
                "--scenario",
                str(EXTRA_DIR / "fast_shear_mean.json"),
                "--cutoff",
                "6",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["cutoff"] == 6
        assert payload["detecting"]["gamma_nu"] == pytest.approx(0.1, abs=1e-10)
        assert len(payload["eigenvalues"]) == (2 * 6 + 1) ** 2 - 1

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mixlab.cli", "--help"], capture_output=True, text=True, env=SRC_ENV
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "corpus" in proc.stdout

    def test_readme_synopsis_matches_each_parser(self):
        """The options each (command, kind) parser registers are those of its README synopsis line."""
        text = (ROOT / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```")[1]
        synopsis = {}
        for line in block.splitlines():
            if line.startswith("mixlab "):
                words = line.split()
                key = tuple(words[1:3]) if words[1] in ("certify", "verify") else (words[1],)
                synopsis[key] = set(re.findall(r"--[a-z-]+", line))

        def subparsers(parser) -> dict:
            actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return actions[0].choices if actions else {}

        def options(parser) -> set:
            return {s for a in parser._actions for s in a.option_strings if s.startswith("--")} - {"--help"}

        registered = {}
        for command, parser in subparsers(cli._parser()).items():
            kinds = {(command, kind): options(p) for kind, p in subparsers(parser).items()}
            registered.update(kinds or {(command,): options(parser)})
        assert registered == synopsis


def test_scipy_loads_only_for_the_fast_certificate():
    """Importing mixlab and running a diffusive and an inviscid scenario load no scipy module;
    the fast certificate's dense algebra loads scipy.linalg at its first call."""
    code = """
import json, sys
import mixlab, mixlab.cli
from mixlab import harness

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
for name in sys.argv[1:3]:
    harness.run(harness.Scenario.from_file(name))
loaded.append(scipy_modules())
raw = json.loads(open(sys.argv[3]).read())
raw["cutoff"] = 4
harness._certify(harness.Scenario.from_json(raw))
loaded.append("scipy.linalg" in sys.modules)
print(json.dumps(loaded))
"""
    paths = [CORPUS_DIR / "heat_cosy.json", EXTRA_DIR / "inviscid_cosx_siny.json", EXTRA_DIR / "fast_shear_mean.json"]
    proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)], capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], True]


def test_report_digest_repeats(tmp_path):
    """scripts/report_digest.py prints the same digests on a second run: timing is left out."""
    (tmp_path / "heat_cosy.json").write_text((CORPUS_DIR / "heat_cosy.json").read_text())
    command = [sys.executable, str(ROOT / "scripts" / "report_digest.py"), str(tmp_path)]
    first, second = (subprocess.run(command, capture_output=True, text=True, env=SRC_ENV, check=True) for _ in range(2))
    lines = first.stdout.splitlines()
    assert first.stdout == second.stdout
    assert [line.split()[1] for line in lines] == [str(tmp_path / "heat_cosy.json"), "all"]
    assert all(len(line.split()[0]) == 64 for line in lines)


def test_report_diff_smoke(tmp_path):
    """scripts/report_diff.py prints each report's largest relative deviation, runtime aside,
    and exits 1 on any non-numeric difference."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    payload = run(Scenario.from_file(CORPUS_DIR / "heat_cosy.json")).to_json()
    (old / "heat_cosy.json").write_text(harness.json_text(payload))
    name = sorted(payload["checks"])[0]
    check = payload["checks"][name]

    def diff():
        command = [sys.executable, str(ROOT / "scripts" / "report_diff.py"), str(old), str(new)]
        proc = subprocess.run(command, capture_output=True, text=True)
        return proc.returncode, proc.stdout.splitlines()

    payload["runtime"] += 1.0
    (new / "heat_cosy.json").write_text(harness.json_text(payload))
    assert diff() == (0, ["0.000e+00  heat_cosy.json  -"])

    check["samples"][1][1] *= 1.0 + 1e-9
    (new / "heat_cosy.json").write_text(harness.json_text(payload))
    rc, lines = diff()
    assert rc == 0 and len(lines) == 1
    dev, report, where = lines[0].split()
    assert 0.5e-9 < float(dev) < 2e-9 and report == "heat_cosy.json" and where == f".checks.{name}.samples[1][1]"

    check["verdict"] = "FAIL"
    del payload["min_margin"]
    (new / "heat_cosy.json").write_text(harness.json_text(payload))
    rc, lines = diff()
    assert rc == 1
    assert [line.split()[1] for line in lines[1:]] == [f".checks.{name}.verdict:", ".min_margin:"]

    (new / "heat_cosy.json").write_text((old / "heat_cosy.json").read_text())
    (new / "extra.json").write_text("{}")
    assert diff() == (1, ["extra.json: only in new", "0.000e+00  heat_cosy.json  -"])
