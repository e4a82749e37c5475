"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All scenarios are desk scale (lattices <= 64^2, truncation cutoffs <= 32).
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from mixlab.averaging import (
    averaged_operator,
    check_fast_bound,
    detecting_spectrum,
    evolve_2d,
    fast_certificate,
    observable_series,
    sylvester_constant,
)
from mixlab.certificates import (
    RESOLVENT_CONST,
    c2_certificate,
    mixing_certificate,
    mode_mk,
    sharpness_family,
)
from mixlab.flows import FlowSpec, FlowTerm, preset_shear
from mixlab.harness import run
from mixlab.inviscid import check_inviscid_bound, evolve_inviscid, inviscid_certificate
from mixlab.shear import dissipation_report, evolve_shear
from mixlab.spectral import (
    HarmonicTerm,
    Lattice,
    SpectralField2D,
    field_from_terms,
    l2_norm,
    low_block_energy,
    mixing_scale,
    x_mode,
)

SIN_Y = preset_shear("couette")
ZERO = preset_shear("zero")


def _dense(op) -> np.ndarray:
    """The averaged operator as a dense n x n complex matrix, scattered from its class-block stacks."""
    matrix = np.zeros((op.dim, op.dim), dtype=complex)
    for idx, blocks in op.groups:
        matrix[idx[:, :, None], idx[:, None, :]] = blocks
    return matrix


def _basis(op, spec):
    """The detecting basis as lattice fields, scattered from the cluster columns of each member class."""
    fields = []
    for idx, _, Z, d in spec.schur_blocks:
        for column in Z[:, :d].T:
            vec = np.zeros(op.dim, dtype=complex)
            vec[idx] = column
            fields.append(SpectralField2D(op.cutoff, np.insert(vec, op.dim // 2, 0.0).reshape(op.cutoff.shape)))
    return fields


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] {num:02d} {label}: {state}{suffix}")


def test_01_heat_exactness():
    nu = 0.1
    rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 1)])
    traj = evolve_shear(rho0, ZERO, nu, np.array([0.5, 1.0, 2.0]))
    worst = 0.0
    for t, f in zip(traj.times, traj.fields):
        exact = math.exp(-nu * t) / math.sqrt(2.0)
        worst = max(worst, abs(l2_norm(f) - exact) / exact)
    ok = worst <= 1e-10
    _verdict(1, "heat exactness", ok, f"max rel err {worst:.2e}")
    assert ok


def test_02_energy_identity():
    rho0 = field_from_terms(Lattice(3, 16), [HarmonicTerm(1.0, 1, 0)])
    traj = evolve_shear(rho0, SIN_Y, 0.1, np.arange(1001) * 1e-3, dt=1e-3)  # every step edge
    res = dissipation_report(traj).max_residual
    ok = res <= 1e-5
    _verdict(2, "energy identity residual", ok, f"max residual {res:.2e}")
    assert ok


def test_03_inviscid_certificate():
    theta0 = field_from_terms(Lattice(2, 2), [HarmonicTerm(1.0, 1, 0)])
    cert = inviscid_certificate(theta0, SIN_Y)
    times = list(np.linspace(0.0, 50.0, 200))
    report = check_inviscid_bound(evolve_inviscid(theta0, SIN_Y, times), cert)
    ok = report.passed and report.extras["tail_ok"]
    _verdict(
        3,
        "inviscid polynomial floor + tail control",
        ok,
        f"min margin {report.min_margin:.3f}, max tail ratio {report.extras['max_tail_ratio']:.2e}",
    )
    assert report.passed
    assert report.extras["tail_ok"]


def test_04_c2_validity_on_corpus(corpus_reports):
    worst_floor = math.inf
    worst_ceiling = 0.0
    for scenario, report in corpus_reports:
        c2 = report.checks["c2_floor"]
        worst_floor = min(worst_floor, c2.min_margin)
        cert = c2.certificate
        traj = report.trajectory
        for t, f in zip(traj.times, traj.fields):
            ratio = l2_norm(f) / (cert["N"] * math.exp(-cert["nu"] * float(t)))
            worst_ceiling = max(worst_ceiling, ratio)
    ok = worst_floor >= 1.0 - 1e-6 and worst_ceiling <= 1.0 + 1e-8
    _verdict(
        4,
        "c2 sandwich on 12 corpus scenarios",
        ok,
        f"min floor margin {worst_floor:.6f}, max ceiling ratio {worst_ceiling:.10f}",
    )
    assert len(corpus_reports) == 12
    assert worst_floor >= 1.0 - 1e-6
    assert worst_ceiling <= 1.0 + 1e-8


def test_05_heat_branch_closed_form():
    rho0 = field_from_terms(Lattice(2, 4), [HarmonicTerm(1.0, 0, 1)])
    worst = 0.0
    for nu in (0.1, 0.05, 0.025):
        cert = c2_certificate(rho0, 0.0, nu)
        worst = max(worst, abs(cert.c2 - 2.0 * nu))
    ok = worst <= 1e-12
    _verdict(5, "heat-branch closed form c2 = 2 nu", ok, f"max |c2 - 2nu| = {worst:.2e}")
    assert ok


def test_06_sharpness_family():
    nu = 0.25
    fam = sharpness_family(nu, 1.0)
    assert fam.n == 4
    times = np.linspace(0.0, 2.0, 21)
    traj = evolve_shear(fam.rho0, fam.shear, nu, times)
    l2s = l2_norm(traj)
    slope = np.polyfit(times, np.log(l2s), 1)[0]
    rate = -float(slope)
    rate_ok = abs(rate - 4.0) <= 1e-8 and 4.0 <= nu * fam.n**2 <= 16.0
    ratios = np.array([mixing_scale(f) for f in traj.fields])
    ratio_ok = bool(np.max(np.abs(ratios - 0.25)) <= 1e-12)
    cert = mixing_certificate(fam.rho0, 0.0, nu, c2_certificate(fam.rho0, 0.0, nu).c2)
    cert_ok = cert.c_star == 0.125 and abs(np.min(ratios) / cert.c_star - 2.0) <= 1e-12
    ok = rate_ok and ratio_ok and cert_ok
    _verdict(
        6,
        "sharpness family identities",
        ok,
        f"rate {rate:.10f}, ratio spread {np.max(np.abs(ratios - 0.25)):.1e}, c* {cert.c_star}",
    )
    assert rate_ok and ratio_ok and cert_ok


def test_07_mixing_floor_and_retention(corpus_reports):
    worst_margin = math.inf
    worst_retention = math.inf
    for scenario, report in corpus_reports:
        mix = report.checks["mixing_floor"]
        cert = mix.certificate
        traj = report.trajectory
        floor = 1.0 / (2.0 * cert["R_star"])
        for f in traj.fields:
            worst_margin = min(worst_margin, mixing_scale(f) - floor)
        for rec in cert["modes"]:
            k, n_k = rec["k"], rec["N_k"]
            for f in traj.fields:
                prof = x_mode(f, k)
                e_k = float(np.sum(np.abs(prof.coeff) ** 2))
                worst_retention = min(worst_retention, low_block_energy(prof, n_k) - 0.5 * e_k)
    ok = worst_margin >= -1e-6 and worst_retention >= -1e-8
    _verdict(
        7,
        "mixing floor + vertical retention on corpus",
        ok,
        f"min(ratio - floor) {worst_margin:.3e}, min(L - E/2) {worst_retention:.3e}",
    )
    assert worst_margin >= -1e-6
    assert worst_retention >= -1e-8


def test_08_mode_mk_oracle_equivalence():
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(200):
        k = int(rng.integers(1, 7)) * int(rng.choice([-1, 1]))
        M = float(rng.uniform(0.0, 2.0))
        nu = float(rng.uniform(0.2, 1.0))
        delta_k = float(rng.uniform(0.5, 50.0))
        closed = mode_mk(k, M, nu, delta_k)
        m = np.arange(1, closed + 2, dtype=float)
        feasible = (RESOLVENT_CONST * k * k * M * M / (nu * nu * m * m) <= 0.25) & (
            RESOLVENT_CONST / (nu * m) <= delta_k / 16.0
        )
        scanned = int(m[np.argmax(feasible)]) if feasible.any() else -1
        if scanned != closed:
            mismatches += 1
    ok = mismatches == 0
    _verdict(8, "mode_mk closed form = integer scan (200 tuples)", ok, f"{mismatches} mismatches")
    assert ok


def test_09_averaged_operator_spectrum():
    nu = 0.1
    # part 1: zero drift -> eigenvalues are exactly -nu (k^2 + l^2)
    op0 = averaged_operator(FlowSpec(()), nu, 8)
    eigs = np.sort_complex(np.linalg.eigvals(_dense(op0)))
    w = np.sort_complex((-nu * (op0.modes[:, 0] ** 2 + op0.modes[:, 1] ** 2)).astype(complex))
    diag_exact = bool(np.array_equal(eigs, w))
    # part 2: shear drift at cutoff 24
    flow = FlowSpec((FlowTerm(1.0, 0, 1, "cos"),))
    op = averaged_operator(flow, nu, 24)
    rho0 = field_from_terms(Lattice(24, 24), [HarmonicTerm(1.0, 0, 1)])
    spec = detecting_spectrum(op, rho0)
    res_ok = spec.residual <= 1e-8
    lam_ok = abs(spec.lambda_nu - (-nu)) <= 1e-10
    ok = diag_exact and res_ok and lam_ok
    _verdict(
        9,
        "averaged-operator spectrum",
        ok,
        f"diag exact {diag_exact}, residual {spec.residual:.2e}, |lambda+nu| {abs(spec.lambda_nu + nu):.2e}",
    )
    assert diag_exact and res_ok and lam_ok


def test_10_observable_law():
    nu = 0.1
    flow = FlowSpec((FlowTerm(1.0, 0, 1, "cos"),))
    cutoff = 8
    op = averaged_operator(flow, nu, cutoff)
    rho0 = field_from_terms(Lattice(cutoff, cutoff), [HarmonicTerm(1.0, 1, 0)])
    spec = detecting_spectrum(op, rho0)
    times = np.linspace(0.0, 2.0, 9)
    traj = evolve_2d(rho0, flow, 0.0, nu, times, dt=1e-3)
    q = observable_series(traj, _basis(op, spec))
    q0_norm = float(np.linalg.norm(q[0]))
    worst = 0.0
    for i, t in enumerate(times):
        pred = sla.expm(spec.G.T * float(t)) @ q[0]
        worst = max(worst, float(np.linalg.norm(q[i] - pred)) / q0_norm)
    ok = worst <= 1e-5
    _verdict(10, "adjoint observable law", ok, f"max |q - e^(Gt) q0|/|q0| = {worst:.2e}")
    assert ok


def test_11_averaging_order():
    nu = 0.1
    # phase period 1 makes A*T an integer number of cycles for every A below,
    # so all runs sample the same final phase of the O(1/A) corrector
    flow = FlowSpec(
        (FlowTerm(1.0, 1, 0, "cos", "cos"), FlowTerm(1.0, 0, 1, "cos", "sin")), period=1.0
    )
    lat = Lattice(6, 6)
    rho0 = field_from_terms(lat, [HarmonicTerm(1.0, 1, 0)])
    T = 1.0
    heat = rho0.coeff * np.exp(-nu * lat.weight_grid() * T)
    As = np.array([50.0, 100.0, 200.0, 400.0])
    errs = []
    for A in As:
        dt = 0.05 / (A * flow.omega + flow.lip * lat.kmax)
        traj = evolve_2d(rho0, flow, A, nu, np.array([T]), dt=dt)
        errs.append(float(np.linalg.norm(traj.fields[0].coeff - heat)))
    slope = float(np.polyfit(np.log(As), np.log(np.array(errs)), 1)[0])
    ok = -1.25 <= slope <= -0.75
    _verdict(11, "averaging order O(1/A)", ok, f"slope {slope:.4f}, errs {[f'{e:.2e}' for e in errs]}")
    assert ok


def test_12_fast_bound_check():
    nu = 0.1
    flow = FlowSpec(
        (FlowTerm(1.0, 0, 1, "cos", "const"), FlowTerm(1.0, 1, 0, "cos", "cos")), period=1.0
    )
    cutoff = 12
    rho_spec = field_from_terms(Lattice(cutoff, cutoff), [HarmonicTerm(1.0, 0, 1)])
    op = averaged_operator(flow, nu, cutoff)
    spec = detecting_spectrum(op, rho_spec)
    syl = sylvester_constant(op, spec)
    rho0 = field_from_terms(Lattice(8, 8), [HarmonicTerm(1.0, 0, 1)])
    cert = fast_certificate(flow, rho0, nu, None, spec, syl)
    A = 100.0
    traj = evolve_2d(rho0, flow, A, nu, np.linspace(0.0, 2.0, 21))
    report = check_fast_bound(traj, cert, A)
    six = report.extras["a0_terms"]
    itemized = len(six) == 6 and cert.A0 == max(six.values())
    ok = report.passed and itemized
    _verdict(
        12,
        "fast-oscillation floor",
        ok,
        f"min margin {report.min_margin:.3e}, regime {report.extras['regime']}, A0 {cert.A0:.3e}",
    )
    assert report.passed
    assert itemized
    assert report.min_margin >= 1.0 - 1e-6
