import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

from mixlab import averaging
from mixlab.averaging import (
    ClusterIsolationError,
    DetectionError,
    averaged_operator,
    c_r_constant,
    check_fast_bound,
    damping_constant,
    detecting_spectrum,
    evolve_2d,
    fast_certificate,
    observable_series,
    sylvester_constant,
)
from mixlab.averaging import DetectingSpectrum, SylvesterEstimate
from mixlab.flows import FlowSpec, FlowTerm, preset_shear, time_average
from mixlab.harness import Scenario
from mixlab.shear import FieldTrajectory, _march, dissipation_report, evolve_shear
from mixlab.spectral import (
    FieldError,
    HarmonicTerm,
    Lattice,
    SpectralField2D,
    field_from_terms,
    grid_sample,
    h2_norm,
    l2_norm,
    synthesize,
)

EXTRA_DIR = Path(__file__).resolve().parent.parent / "scenarios" / "extra"
NU = 0.1
SHEAR_FLOW = FlowSpec((FlowTerm(1.0, 0, 1, "cos"),))  # psi = cos y -> u = (sin y, 0)
ZERO_FLOW = FlowSpec(())


def cos_y(lattice):
    return field_from_terms(lattice, [HarmonicTerm(1.0, 0, 1)])


def _dense(op):
    """The operator as a dense n x n complex matrix, scattered from its class-block stacks."""
    matrix = np.zeros((op.dim, op.dim), dtype=complex)
    for idx, blocks in op.groups:
        matrix[idx[:, :, None], idx[:, None, :]] = blocks
    return matrix


def _classes(op):
    """The mode classes: the rows of every class-block stack, ordered by first index."""
    return sorted((row for idx, _ in op.groups for row in idx), key=lambda row: row[0])


def _field(op, vec):
    """The lattice field whose coefficients on ``op.modes`` are ``vec``, with 0 at the centre."""
    return SpectralField2D(op.cutoff, np.insert(vec, op.dim // 2, 0.0).reshape(op.cutoff.shape))


def _basis(op, spec):
    """The detecting basis as lattice fields, scattered from the cluster columns of each member class."""
    fields = []
    for idx, _, Z, d in spec.schur_blocks:
        for column in Z[:, :d].T:
            vec = np.zeros(op.dim, dtype=complex)
            vec[idx] = column
            fields.append(_field(op, vec))
    return fields


def _velocity_grid(flow, theta, x, y):
    """u = -d_y psi and v = d_x psi of the stream function's terms at phase theta, on the grid x (x) y."""
    X, Y = np.meshgrid(x, y, indexing="ij")
    u, v = np.zeros_like(X), np.zeros_like(X)
    tau = {"const": 1.0, "cos": math.cos(flow.omega * theta), "sin": math.sin(flow.omega * theta)}
    for t in flow.terms:
        arg = t.kx * X + t.ky * Y
        slope = t.ampl * tau[t.time_mode] * (-np.sin(arg) if t.phase == "cos" else np.cos(arg))
        u -= t.ky * slope
        v += t.kx * slope
    return u, v


class TestAveragedOperator:
    def test_zero_velocity_is_diagonal(self):
        op = averaged_operator(ZERO_FLOW, NU, 4)
        w = (op.modes[:, 0] ** 2 + op.modes[:, 1] ** 2).astype(float)
        matrix = _dense(op)
        assert np.array_equal(np.diag(matrix), -NU * w)
        assert np.max(np.abs(matrix - np.diag(np.diag(matrix)))) == 0.0

    def test_shear_leaves_k0_columns_diagonal(self):
        op = averaged_operator(SHEAR_FLOW, NU, 6)
        idx = {(int(k), int(l)): i for i, (k, l) in enumerate(op.modes)}
        matrix = _dense(op)
        for l in range(-6, 7):
            if l == 0:
                continue
            col = matrix[:, idx[(0, l)]].copy()
            col[idx[(0, l)]] = 0.0
            assert np.max(np.abs(col)) == 0.0

    def test_matvec_matches_grid_space_oracle(self):
        # random band-limited velocity and field, products stay inside cutoff
        cutoff = Lattice(8, 8)
        flow = FlowSpec(
            (FlowTerm(0.8, 1, 2, "cos"), FlowTerm(-0.5, 2, 1, "sin"), FlowTerm(0.3, 0, 3, "cos")),
        )
        rng = np.random.default_rng(7)
        f_lat = Lattice(4, 4)
        coeff = rng.standard_normal(f_lat.shape) + 1j * rng.standard_normal(f_lat.shape)
        coeff = 0.5 * (coeff + np.conj(coeff[::-1, ::-1]))
        coeff[4, 4] = 0.0
        from mixlab.spectral import SpectralField2D, embed

        f = embed(SpectralField2D(f_lat, coeff), cutoff)
        op = averaged_operator(flow, NU, cutoff)
        out_vec = _dense(op) @ op.field_to_vec(f)
        out = _field(op, out_vec)

        n = 64
        x = 2 * np.pi * np.arange(n) / n
        u1, u2 = _velocity_grid(flow, 0.0, x, x)
        dfx = grid_sample(_dx(f), n, n)
        dfy = grid_sample(_dy(f), n, n)
        lap = grid_sample(_lap(f), n, n)
        want = synthesize(NU * lap + u1 * dfx + u2 * dfy, cutoff)
        assert np.max(np.abs(out.coeff - want.coeff)) <= 1e-10

    def test_band_warning(self):
        flow = FlowSpec((FlowTerm(1.0, 3, 3, "cos"),))
        with pytest.warns(UserWarning):
            averaged_operator(flow, NU, 4)

    def test_drift_block_is_energy_neutral(self):
        # Re <ubar.grad f, f> = 0 up to truncation leakage for band-limited ubar
        cutoff = Lattice(8, 8)
        flow = FlowSpec((FlowTerm(0.9, 1, 1, "cos"), FlowTerm(0.4, 0, 2, "sin")))
        op = averaged_operator(flow, NU, cutoff)
        matrix = _dense(op)
        drift = matrix - np.diag(np.diag(matrix))
        rng = np.random.default_rng(11)
        for _ in range(5):
            coeff = rng.standard_normal(cutoff.shape) + 1j * rng.standard_normal(cutoff.shape)
            coeff[: 2, :] = 0.0  # keep |k| <= 6 so the convolution stays inside
            coeff[-2:, :] = 0.0
            coeff[:, :2] = 0.0
            coeff[:, -2:] = 0.0
            coeff[cutoff.kmax, cutoff.lmax] = 0.0
            from mixlab.spectral import SpectralField2D, grad_l2_sq

            f = SpectralField2D(cutoff, coeff)
            v = op.field_to_vec(f)
            skew = abs(np.real(np.vdot(v, drift @ v)))
            bound = 1e-10 * np.linalg.norm(v) * math.sqrt(grad_l2_sq(f))
            assert skew <= bound


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


class TestGalerkinDrift:
    @given(flow_terms, st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_grid_space_oracle(self, terms, theta, seed):
        flow = FlowSpec(tuple(FlowTerm(*t) for t in terms), period=1.7)
        lattice = Lattice(5, 4)
        rng = np.random.default_rng(seed)
        coeff = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        coeff = 0.5 * (coeff + np.conj(coeff[::-1, ::-1]))
        coeff[lattice.kmax, lattice.lmax] = 0.0
        f = SpectralField2D(lattice, coeff)

        drift = averaging._Drift([flow.mode_velocity(m) for m in averaging._TIME_MODES], lattice)
        phase = flow.omega * theta
        got = _drift_at(drift, f.coeff.ravel(), np.array([1.0, math.cos(phase), math.sin(phase)]))
        got = got.reshape(lattice.shape)

        n = 32  # the product has band 7, so no alias of it lands on |k| <= 5
        x = 2 * np.pi * np.arange(n) / n
        u1, u2 = _velocity_grid(flow, theta, x, x)
        want = synthesize(u1 * grid_sample(_dx(f), n, n) + u2 * grid_sample(_dy(f), n, n), lattice)
        assert np.max(np.abs(got - want.coeff)) <= 1e-10

    @given(
        flow_terms,
        st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        st.sampled_from([(2, 5), (5, 3), (4, 1), (1, 6), (3, 3)]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_slice_loop(self, terms, weights, shape, seed):
        flow = FlowSpec(tuple(FlowTerm(*t) for t in terms), period=1.3)
        lattice = Lattice(*shape)
        rng = np.random.default_rng(seed)
        coeff = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        coeff[lattice.kmax, lattice.lmax] = 0.0
        velocities = [flow.mode_velocity(m) for m in averaging._TIME_MODES]
        weights = np.array(weights)
        drift = averaging._Drift(velocities, lattice)
        got = _drift_at(drift, coeff.ravel(), weights).reshape(lattice.shape)
        want = _slice_loop_drift(velocities, lattice, coeff, weights)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))

    @given(
        flow_terms,
        st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        st.sampled_from([(2, 5), (5, 3), (4, 1), (1, 6), (3, 3)]),
        st.complex_numbers(allow_nan=False, allow_infinity=False),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_ignores_finite_centre_coefficient(self, terms, weights, shape, centre, seed):
        # dropped products read the (0, 0) slot with weight exactly 0
        flow = FlowSpec(tuple(FlowTerm(*t) for t in terms), period=1.3)
        lattice = Lattice(*shape)
        n = math.prod(lattice.shape)
        rng = np.random.default_rng(seed)
        coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coeff[n // 2] = 0.0
        drift = averaging._Drift([flow.mode_velocity(m) for m in averaging._TIME_MODES], lattice)
        want = _drift_at(drift, coeff, np.array(weights))
        coeff[n // 2] = centre
        assert np.array_equal(_drift_at(drift, coeff, np.array(weights)), want)

    @given(flow_terms, st.sampled_from([(2, 5), (5, 3), (4, 4), (6, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_averaged_matrix_equals_harmonic_fill(self, terms, shape):
        flow = FlowSpec(tuple(FlowTerm(*t) for t in terms), period=1.3)
        cutoff = Lattice(*shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # bands beyond cutoff / 2 are truncated on both sides alike
            op = averaged_operator(flow, NU, cutoff)
        assert np.array_equal(_dense(op), _harmonic_fill(time_average(flow), NU, cutoff, op.modes))

    def test_harmonic_in_two_time_modes_has_a_row_per_mode(self):
        """psi harmonic (1, 0) in the const and cos modes, (0, 1) in cos and sin: one row per (mode, harmonic)."""
        flow = FlowSpec(
            (
                FlowTerm(1.0, 1, 0, "cos", "const"),
                FlowTerm(0.6, 1, 0, "sin", "cos"),
                FlowTerm(0.8, 0, 1, "cos", "cos"),
                FlowTerm(-0.4, 0, 1, "sin", "sin"),
            ),
            period=1.3,
        )
        lattice = Lattice(4, 3)
        velocities = [flow.mode_velocity(m) for m in averaging._TIME_MODES]
        drift = averaging._Drift(velocities, lattice)
        # each real term has the velocity harmonics +-(kx, ky); rows come ordered by mode
        assert drift.mode.tolist() == [0, 0, 1, 1, 1, 1, 2, 2]
        assert drift.src.shape == drift.vals.shape == (8, math.prod(lattice.shape))
        assert np.all(np.any(drift.vals != 0, axis=1))
        rng = np.random.default_rng(5)
        coeff = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        coeff[lattice.kmax, lattice.lmax] = 0.0
        for weights in (np.array([1.0, 0.3, -0.7]), np.array([0.0, 1.0, 0.0]), np.array([-0.5, 0.0, 2.0])):
            got = _drift_at(drift, coeff.ravel(), weights).reshape(lattice.shape)
            want = _slice_loop_drift(velocities, lattice, coeff, weights)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))
        # the stepper contracts the same rows
        rho0 = field_from_terms(lattice, [HarmonicTerm(1.0, 1, 1), HarmonicTerm(0.5, 2, 0, "sin")])
        times = np.array([0.0, 0.05, 0.3])
        got = evolve_2d(rho0, flow, 37.0, NU, times)
        want = _reference_evolve_2d(rho0, flow, 37.0, NU, times)
        assert np.array_equal(got.diag_times, want.diag_times)
        assert np.max(np.abs(got.coeff - want.coeff)) <= 1e-12 * np.max(np.abs(want.coeff))


def _drift_at(drift, coeff, weights):
    """The drift of the flat coeff under real time-mode weights, as an evolve_2d stage contracts it."""
    return weights[drift.mode].astype(complex) @ (drift.vals * coeff[drift.src])


def _shift(p, n):
    """Destination and source slices along an axis of length n for a frequency shift by p."""
    if p >= 0:
        return slice(p, n), slice(0, n - p)
    return slice(0, n + p), slice(-p, n)


def _slice_loop_drift(velocities, lattice, coeff, weights):
    """Reference drift on the lattice array: one shifted-slice update per velocity harmonic."""
    vlat = velocities[0].lattice
    a = np.tensordot(weights, np.array([sv.u for sv in velocities]), 1)
    b = np.tensordot(weights, np.array([sv.v for sv in velocities]), 1)
    dx = 1j * lattice.k_values()[:, None] * coeff
    dy = 1j * lattice.l_values()[None, :] * coeff
    out = np.zeros_like(coeff)
    for i, j in np.argwhere((a != 0) | (b != 0)):
        p, q = i - vlat.kmax, j - vlat.lmax
        if abs(p) > 2 * lattice.kmax or abs(q) > 2 * lattice.lmax:
            continue
        (dk, sk), (dl, sl) = _shift(p, lattice.shape[0]), _shift(q, lattice.shape[1])
        out[dk, dl] += a[i, j] * dx[sk, sl] + b[i, j] * dy[sk, sl]
    out[lattice.kmax, lattice.lmax] = 0.0
    return out


def _harmonic_fill(ubar, nu, cutoff, modes):
    """Reference averaged matrix: the diffusion diagonal, then one index-array update per harmonic of ubar."""
    n = modes.shape[0]
    kmax, lmax = cutoff.kmax, cutoff.lmax
    matrix = np.zeros((n, n), dtype=complex)
    matrix[np.arange(n), np.arange(n)] = -nu * (modes[:, 0] ** 2 + modes[:, 1] ** 2).astype(float)
    index = np.full(cutoff.shape, -1)
    index[modes[:, 0] + kmax, modes[:, 1] + lmax] = np.arange(n)
    k, l = modes[:, 0], modes[:, 1]
    for i, j in np.argwhere((ubar.u != 0) | (ubar.v != 0)):
        p, q = i - ubar.lattice.kmax, j - ubar.lattice.lmax
        a, b = ubar.u[i, j], ubar.v[i, j]
        kr, lr = k + p, l + q
        inside = np.flatnonzero((np.abs(kr) <= kmax) & (np.abs(lr) <= lmax))
        rows = index[kr[inside] + kmax, lr[inside] + lmax]
        keep = rows >= 0  # the (0,0) mode is not in the list
        cols = inside[keep]
        matrix[rows[keep], cols] += 1j * (k[cols] * a + l[cols] * b)
    return matrix


def _weighted(f, fn):
    k = f.lattice.k_values()[:, None]
    l = f.lattice.l_values()[None, :]
    return SpectralField2D(f.lattice, fn(k, l) * f.coeff)


def _dx(f):
    return _weighted(f, lambda k, l: 1j * k)


def _dy(f):
    return _weighted(f, lambda k, l: 1j * l)


def _lap(f):
    return _weighted(f, lambda k, l: -(k**2 + l**2).astype(float))


SHEAR_MEAN = FlowSpec(  # fast_shear_mean: ubar = (cos y, 0) up to sign, the x-harmonic averages out
    (FlowTerm(1.0, 0, 1, "cos", "const"), FlowTerm(1.0, 1, 0, "cos", "cos")), period=1.0
)
COUPLED_FLOW = FlowSpec((FlowTerm(1.0, 0, 1, "cos"), FlowTerm(0.7, 1, 0, "cos")))


def _reference_matrix(flow, op):
    """The dense matrix filled harmonic by harmonic, independent of the class blocks: the pattern the classes split."""
    return _harmonic_fill(time_average(flow), op.nu, op.cutoff, op.modes)


class TestModeClasses:
    @staticmethod
    def _check_partition(op, flow):
        labels = np.full(op.dim, -1)
        for c, idx in enumerate(_classes(op)):
            assert np.all(labels[idx] == -1)
            labels[idx] = c
        assert np.all(labels >= 0)
        rows, cols = np.nonzero(_reference_matrix(flow, op))
        assert np.array_equal(labels[rows], labels[cols])

    def test_zero_flow_has_singletons(self):
        op = averaged_operator(ZERO_FLOW, NU, 4)
        self._check_partition(op, ZERO_FLOW)
        assert len(_classes(op)) == op.dim

    def test_shear_mean_splits_by_x_wavenumber(self):
        op = averaged_operator(SHEAR_MEAN, NU, 10)
        self._check_partition(op, SHEAR_MEAN)
        classes = _classes(op)
        assert len(classes) == 40  # 20 nonzero k of 21 modes each, 20 lone k = 0 modes
        assert max(idx.size for idx in classes) == 21
        for idx in classes:
            k = np.unique(op.modes[idx, 0])
            assert k.size == 1 and (idx.size == 21) == (k[0] != 0)

    def test_coupled_flow_is_one_class(self):
        op = averaged_operator(COUPLED_FLOW, NU, 8)
        self._check_partition(op, COUPLED_FLOW)
        classes = _classes(op)
        assert len(classes) == 1 and classes[0].size == op.dim == 288

    @staticmethod
    def _assert_union_find_classes(op, flow):
        want = _union_find_classes(_reference_matrix(flow, op))
        got_classes = _classes(op)
        assert len(got_classes) == len(want)
        for got, ref in zip(got_classes, want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", ["fast_shear_mean", "fast_averaging_study"])
    def test_shipped_flows_match_union_find(self, name):
        flow = Scenario.from_file(EXTRA_DIR / f"{name}.json").flow_spec
        for cutoff in range(4, 17):
            self._assert_union_find_classes(averaged_operator(flow, NU, cutoff), flow)

    @given(flow_terms, st.sampled_from([(1, 1), (2, 5), (5, 3), (4, 4), (6, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_random_flows_match_union_find(self, terms, shape):
        flow = FlowSpec(tuple(FlowTerm(*t) for t in terms), period=1.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # bands beyond cutoff / 2 are truncated
            op = averaged_operator(flow, NU, Lattice(*shape))
        self._assert_union_find_classes(op, flow)


def _union_find_classes(matrix):
    """Mode classes by a union-find over the nonzero entries of the dense matrix, kept as the reference."""
    n = matrix.shape[0]
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(matrix)
    for r, c in zip(rows.tolist(), cols.tolist()):
        a, b = root(r), root(c)
        if a != b:
            parent[max(a, b)] = min(a, b)
    labels = np.array([root(i) for i in range(n)])
    order = np.argsort(labels, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(labels[order])) + 1))


def _greedy_clusters_loop(eigs, tol):
    """The clustering as a Python loop over centres, kept as the reference."""
    order = np.argsort(-eigs.real)
    clusters, centers = [], []
    for i in order:
        lam = eigs[i]
        placed = False
        for c, center in enumerate(centers):
            if abs(lam - center) <= tol:
                clusters[c].append(i)
                members = eigs[clusters[c]]
                centers[c] = complex(np.mean(members))
                placed = True
                break
        if not placed:
            clusters.append([i])
            centers.append(complex(lam))

    def quantized(c):
        z = centers[c]
        return (round(-z.real / tol), round(abs(z.imag) / tol), -np.sign(round(z.imag / tol)))

    keyed = sorted(range(len(clusters)), key=quantized)
    return [np.array(clusters[c], dtype=int) for c in keyed]


@st.composite
def planted_spectra(draw):
    """Random spectra with planted duplicates, conjugates, points just inside and outside tol,
    chains and runs of equal real parts.

    A chain is a walk of 8 to 16 steps of 0.5 tol in random directions, so that a centre
    drifts as members join and a cluster can pass 8 members; a run shares the anchor's real
    part exactly, so that the visiting order and the sweep line meet ties.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([1e-7, 1e-3, 0.1]))
    n = draw(st.integers(1, 30))
    eigs = list(-rng.uniform(0.0, 5.0, n) + 1j * rng.uniform(-5.0, 5.0, n) * (rng.random(n) < 0.7))
    kinds = ["duplicate", "conjugate", "inside", "outside", "chain", "equal_real"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        anchor = eigs[rng.integers(len(eigs))]  # may itself be planted, so chains form
        if kind == "duplicate":
            eigs.append(anchor)
        elif kind == "conjugate":
            eigs.append(np.conj(anchor))
        elif kind == "chain":
            steps = 0.5 * tol * np.exp(2j * np.pi * rng.random(rng.integers(8, 17)))
            eigs.extend(anchor + np.cumsum(steps))
        elif kind == "equal_real":
            offsets = tol * rng.uniform(-3.0, 3.0, rng.integers(2, 9))
            eigs.extend(complex(anchor.real, anchor.imag + o) for o in offsets)
        else:
            step = (0.99 if kind == "inside" else 1.01) * tol * np.exp(2j * np.pi * rng.random())
            eigs.append(anchor + step)
    eigs = np.array(eigs, dtype=complex)
    return eigs[rng.permutation(eigs.size)], tol


class TestClusterEigenvalues:
    @given(planted_spectra())
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_over_centres(self, case):
        eigs, tol = case
        self._assert_matches_loop(eigs, tol)

    @pytest.mark.parametrize("cutoff", [6, 8, 10, 12])
    @pytest.mark.parametrize("name", ["fast_shear_mean", "fast_averaging_study"])
    def test_shipped_spectra_match_loop(self, name, cutoff):
        scenario = Scenario.from_file(EXTRA_DIR / f"{name}.json")
        lattice = Lattice(cutoff, cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # bands beyond cutoff / 2 are truncated
            op = averaged_operator(scenario.flow_spec, scenario.nu, lattice)
        spec = detecting_spectrum(op, field_from_terms(lattice, scenario.initial_terms))
        self._assert_matches_loop(spec.eigenvalues, spec.cluster_tol)

    @staticmethod
    def _assert_matches_loop(eigs, tol):
        got = averaging._cluster_eigenvalues(eigs, tol)
        want = _greedy_clusters_loop(eigs, tol)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestNorm2:
    @given(
        st.integers(1, 40),
        st.lists(st.integers(0, 40), min_size=1, max_size=4),
        st.integers(-100, 100),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_svd_norm(self, size, ranks, exponent, seed):
        rng = np.random.default_rng(seed)

        def member(rank):  # rank-deficient when rank < size
            rank = min(rank, size)
            left = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
            right = rng.standard_normal((rank, size)) + 1j * rng.standard_normal((rank, size))
            return left @ right

        stack = 10.0**exponent * np.array([member(r) for r in ranks])
        want = np.linalg.norm(stack, 2, axis=(-2, -1))
        np.testing.assert_allclose(averaging._norm2(stack), want, rtol=1e-13, atol=0.0)


def _basis_constants(op, basis, rho0):
    """q0, K0 and K2 of an n x d basis matrix: the datum's bilinear pairing with the columns, their norm, and
    the root of the sum of their squared h2_norm as lattice fields."""
    return {
        "q0": basis.T @ op.field_to_vec(rho0)[::-1],  # the pairing reads (-k, -l): the mode list reversed
        "K0": np.linalg.norm(basis),
        "K2": math.sqrt(sum(h2_norm(_field(op, column)) ** 2 for column in basis.T)),
    }


def _dense_oracle(op, rho0, n_nodes=8):
    """The whole-matrix algorithm: a sorted Schur form of the full matrix per
    candidate cluster, the Riesz projector from it, and dense resolvents."""
    tol = 1e-6 * op.nu
    rho_flipped = op.field_to_vec(rho0)[::-1]  # the pairing reads (-k, -l): the mode list reversed
    matrix = _dense(op)
    eigs = np.linalg.eigvals(matrix)
    for cluster in averaging._cluster_eigenvalues(eigs, tol):
        center = complex(np.mean(eigs[cluster]))
        T, Z, d = sla.schur(matrix, output="complex", sort=lambda z: abs(z - center) <= tol)
        if d == 0:
            continue
        basis, G = Z[:, :d], T[:d, :d]
        q0 = basis.T @ rho_flipped
        if np.linalg.norm(q0) > averaging.EPS_DETECT * l2_norm(rho0):
            break
    else:
        raise DetectionError("oracle found no detecting cluster")
    lam = complex(np.mean(np.diag(G)))
    constants = _basis_constants(op, basis, rho0)
    spectrum = {
        "gamma_nu": -lam.real,
        "d_nu": d,
        "Q": np.linalg.norm(q0),
        "K0": constants["K0"],
        "K2": constants["K2"],
        "g_norm": np.linalg.norm(G, 2),
    }
    gap = float(np.min(np.abs(eigs[np.abs(eigs - lam) > tol] - lam)))
    if gap <= 10.0 * tol:
        raise ClusterIsolationError("oracle gap below the isolation floor")
    X = sla.solve_sylvester(T[:d, :d], -T[d:, d:], T[:d, d:])
    p_right = np.hstack([np.eye(d), X]) @ Z.conj().T
    weights = 1.0 + (op.modes[:, 0] ** 2 + op.modes[:, 1] ** 2).astype(float)
    w_half = np.sqrt(weights)
    norms = {"h1w": [], "h2w": []}
    g_inv_max = 0.0
    for theta in 2.0 * np.pi * np.arange(n_nodes) / n_nodes:
        z = lam + 0.5 * gap * np.exp(1j * theta)
        resolvent = np.linalg.inv(z * np.eye(op.dim) - matrix)
        r_proj = resolvent - (resolvent @ basis) @ p_right
        norms["h1w"].append(np.linalg.norm(w_half[:, None] * r_proj * w_half[None, :], 2))
        norms["h2w"].append(np.linalg.norm(weights[:, None] * r_proj, 2))
        g_inv_max = max(g_inv_max, np.linalg.norm(np.linalg.inv(z * np.eye(d) - G), 2))
    norms["value"] = max(1.0, 0.5 * gap * g_inv_max * max(max(norms["h1w"]), max(norms["h2w"])))
    return spectrum, gap, norms


@st.composite
def averaged_flows(draw):
    """Band-limited flows whose mean is a shear, zero, or coupled in x and y."""
    kind = draw(st.sampled_from(["shear", "zero_mean", "coupled"]))
    ampl = st.floats(0.2, 1.5)
    phase = st.sampled_from(["cos", "sin"])

    def terms(kx, ky, time_mode=st.just("const"), **size):
        return draw(st.lists(st.builds(FlowTerm, ampl, kx, ky, phase, time_mode), **size))

    if kind == "shear":
        # an oscillating term averages out and leaves the shear mean
        flow = terms(st.just(0), st.integers(1, 2), min_size=1, max_size=3)
        flow += terms(st.just(1), st.just(1), st.just("cos"), max_size=1)
    elif kind == "zero_mean":
        oscillating = st.sampled_from(["cos", "sin"])
        flow = terms(st.integers(0, 2), st.integers(1, 2), oscillating, min_size=1, max_size=3)
    else:
        flow = [FlowTerm(draw(ampl), 0, 1, draw(phase)), FlowTerm(draw(ampl), 1, 0, draw(phase))]
        flow += terms(st.integers(1, 2), st.integers(-2, 2), max_size=2)
    return FlowSpec(tuple(flow), period=1.0)


@st.composite
def mixed_phase_means(draw):
    """Steady flows of band 1 whose terms take the cos or the sin phase at random.

    A cos-phase stream function gives real class blocks; a sin-phase term
    makes the blocks it reaches complex, so one flow can hold both kinds.
    """
    term = st.builds(
        lambda a, kl, phase: FlowTerm(a, *kl, phase),
        st.floats(0.2, 1.5),
        st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -1)]),
        st.sampled_from(["cos", "sin"]),
    )
    return FlowSpec(tuple(draw(st.lists(term, min_size=1, max_size=3))), period=1.0)


datum_terms = st.lists(
    st.builds(
        lambda a, kl, kind: HarmonicTerm(a, *kl, kind),
        st.floats(0.2, 1.0),
        st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -1), (0, 2), (2, 1)]),
        st.sampled_from(["cos", "sin"]),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda t: (t.kx, t.ky, t.kind),
)


class TestPerClassAlgebra:
    @given(mixed_phase_means(), st.integers(3, 6), st.floats(0.05, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_groups_stack_every_class_once(self, flow, cutoff, nu):
        """One stack per class size, in order of first appearance, rows by first index; a stack is real
        exactly when its imaginary part is 0."""
        op = averaged_operator(flow, nu, cutoff)
        assert [idx.shape[1] for idx, _ in op.groups] == list(dict.fromkeys(idx.size for idx in _classes(op)))
        for idx, blocks in op.groups:
            assert blocks.shape == idx.shape + idx.shape[1:]
            assert np.all(np.diff(idx[:, 0]) > 0)
            assert np.isrealobj(blocks) or blocks.imag.any()
        rows = sorted(tuple(row.tolist()) for idx, _ in op.groups for row in idx)
        assert rows == sorted(tuple(idx.tolist()) for idx in _union_find_classes(_reference_matrix(flow, op)))

    @given(averaged_flows(), st.integers(4, 6), st.floats(0.05, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_flip_conjugates_matrix_and_pairs_classes(self, flow, cutoff, nu):
        """F M F = conj(M) exactly, and the flip of every class is a class: the pairing detecting_spectrum reads."""
        op = averaged_operator(flow, nu, cutoff)
        f = np.arange(op.dim)[::-1]  # (k, l) -> (-k, -l) reverses the mode list
        matrix = _dense(op)
        assert np.array_equal(matrix[np.ix_(f, f)], matrix.conj())
        classes = {tuple(idx.tolist()) for idx in _classes(op)}
        for idx in _classes(op):
            assert tuple((op.dim - 1 - idx[::-1]).tolist()) in classes

    @given(averaged_flows(), datum_terms, st.integers(4, 6), st.floats(0.05, 0.5))
    @example(SHEAR_MEAN, [HarmonicTerm(1.0, 1, 0)], 5, 0.1)  # a complex cluster in two real classes
    @example(COUPLED_FLOW, [HarmonicTerm(1.0, 0, 1)], 4, 0.1)  # one real class
    @example(  # a mixed sin/cos shear mean: the cluster lies in two complex blocks, beside real singletons
        FlowSpec((FlowTerm(1.0, 0, 1, "cos"), FlowTerm(0.5, 0, 1, "sin")), period=1.0),
        [HarmonicTerm(1.0, 1, 0, "sin")],
        4,
        0.2,
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_oracle(self, flow, terms, cutoff, nu):
        op = averaged_operator(flow, nu, cutoff)
        rho0 = field_from_terms(Lattice(cutoff, cutoff), terms)
        try:
            want_spec, want_gap, want_norms = _dense_oracle(op, rho0)
        except (DetectionError, ClusterIsolationError) as exc:
            with pytest.raises(type(exc)):
                sylvester_constant(op, detecting_spectrum(op, rho0))
            return
        spec = detecting_spectrum(op, rho0)
        for key, want in want_spec.items():
            assert getattr(spec, key) == pytest.approx(want, rel=1e-10, abs=0.0), key
        # q0, K0 and K2, taken class by class, are the dense basis's
        basis = np.array([op.field_to_vec(f) for f in _basis(op, spec)]).T
        constants = _basis_constants(op, basis, rho0)
        assert np.linalg.norm(spec.q0 - constants["q0"]) <= 1e-10 * np.linalg.norm(constants["q0"])
        for key in ("K0", "K2"):
            assert getattr(spec, key) == pytest.approx(constants[key], rel=1e-10, abs=0.0), key
        matrix = _dense(op)
        residual = matrix @ basis - basis @ spec.G
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(matrix))
        # the per-class residual is the dense one's largest column norm, to a few rounding units of the operator
        rounding = 2.0 * np.finfo(float).eps * np.max(np.abs(matrix))
        assert spec.residual == pytest.approx(np.max(np.linalg.norm(residual, axis=0)), rel=0.0, abs=rounding)
        syl = sylvester_constant(op, spec)
        assert syl.gap == pytest.approx(want_gap, rel=1e-10, abs=0.0)
        for got, key in ((syl.h1_weighted_norms, "h1w"), (syl.h2_weighted_norms, "h2w")):
            np.testing.assert_allclose(got, want_norms[key], rtol=1e-10, atol=0.0, err_msg=key)

    @given(mixed_phase_means(), datum_terms, st.integers(3, 6), st.floats(0.05, 0.5))
    @example(  # every block real: the half contour and the real-axis nodes
        FlowSpec((FlowTerm(1.0, 0, 1, "cos"), FlowTerm(0.7, 1, 0, "cos")), period=1.0),
        [HarmonicTerm(1.0, 0, 1)],
        5,
        0.1,
    )
    @example(  # a sin-phase shear: complex blocks beside the real k = 0 singletons, and a real lambda_nu
        FlowSpec((FlowTerm(1.0, 0, 1, "cos"), FlowTerm(0.5, 0, 1, "sin")), period=1.0),
        [HarmonicTerm(1.0, 0, 1), HarmonicTerm(0.5, 1, 0, "sin")],
        4,
        0.2,
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_phase_sylvester_matches_dense_oracle(self, flow, terms, cutoff, nu):
        """Real and complex class blocks alike: the estimate and its node norms are the dense oracle's."""
        op = averaged_operator(flow, nu, cutoff)
        rho0 = field_from_terms(Lattice(cutoff, cutoff), terms)
        try:
            _, _, want = _dense_oracle(op, rho0)
        except (DetectionError, ClusterIsolationError) as exc:
            with pytest.raises(type(exc)):
                sylvester_constant(op, detecting_spectrum(op, rho0))
            return
        syl = sylvester_constant(op, detecting_spectrum(op, rho0))
        assert syl.value == pytest.approx(want["value"], rel=1e-10, abs=0.0)
        for got, key in ((syl.h1_weighted_norms, "h1w"), (syl.h2_weighted_norms, "h2w")):
            np.testing.assert_allclose(got, want[key], rtol=1e-10, atol=0.0, err_msg=key)


class TestDetectingSpectrum:
    def test_diagonal_case(self):
        op = averaged_operator(ZERO_FLOW, NU, 4)
        spec = detecting_spectrum(op, cos_y(Lattice(4, 4)))
        assert spec.lambda_nu == -NU
        assert spec.gamma_nu == NU
        assert spec.d_nu == 4  # multiplicity of -nu: modes (+-1,0),(0,+-1)
        assert spec.Q == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert spec.K0 == pytest.approx(2.0, rel=1e-12)
        assert spec.residual <= 1e-12

    def test_shear_keeps_k0_eigenvalue(self):
        op = averaged_operator(SHEAR_FLOW, NU, 8)
        spec = detecting_spectrum(op, cos_y(Lattice(8, 8)))
        assert abs(spec.lambda_nu + NU) <= 1e-10
        assert spec.residual <= 1e-8
        assert spec.Q > 0

    def test_x_mode_datum_detects_complex_cluster(self):
        op = averaged_operator(SHEAR_FLOW, NU, 8)
        rho0 = field_from_terms(Lattice(8, 8), [HarmonicTerm(1.0, 1, 0)])
        spec = detecting_spectrum(op, rho0)
        assert spec.Q > 1e-3
        assert spec.residual <= 1e-8
        assert spec.gamma_nu > NU  # enhanced decay on nonzero x-modes

    @pytest.mark.parametrize("flow", [COUPLED_FLOW, SHEAR_MEAN], ids=["coupled", "shear_mean"])
    def test_real_stack_eigenvalues_pair_exactly(self, flow):
        """Real blocks go to the real solver: every conjugate pair comes out exactly conjugate, every
        real eigenvalue exactly real, and the spectrum is the complex solver's to 1e-12 after sorting.
        The coupled mean is one self-flipped class, so there the pairs come from the solver alone."""
        op = averaged_operator(flow, NU, 6)
        matrix = _dense(op)
        assert not matrix.imag.any()
        eigs = detecting_spectrum(op, cos_y(Lattice(6, 6))).eigenvalues
        assert np.array_equal(np.sort(eigs), np.sort(eigs.conj()))
        assert np.any(eigs.imag != 0.0) and np.any(eigs.imag == 0.0)
        want = np.linalg.eigvals(matrix)
        assert want.dtype == complex
        by_value = lambda z: z[np.lexsort((z.imag, np.round(z.real, 8)))]
        np.testing.assert_allclose(by_value(eigs), by_value(want), rtol=0.0, atol=1e-12 * np.max(np.abs(want)))

    def test_no_detection_raises(self, monkeypatch):
        op = averaged_operator(ZERO_FLOW, NU, 3)
        # datum orthogonal to every mode the operator resolves is impossible;
        # instead ask for a datum whose pairing threshold cannot be met
        rho0 = cos_y(Lattice(3, 3))
        monkeypatch.setattr(averaging, "EPS_DETECT", 1e6)
        with pytest.raises(DetectionError):
            detecting_spectrum(op, rho0)


class TestDamping:
    def test_dimension_one_is_unity(self):
        assert damping_constant(np.array([[-0.3 + 0.2j]]), 0.3, 0.7) == 1.0

    def test_jordan_block_against_dense_sampling(self):
        gamma, eta = 0.2, 0.1
        G = np.array([[-gamma, 1.0], [0.0, -gamma]], dtype=complex)
        value = damping_constant(G, gamma, eta)
        ts = np.linspace(0.0, 300.0, 200001)
        # ||exp(-G^T t)|| = e^{gamma t} * sigma_max([[1,0],[-t,1]])
        sup = np.max(np.exp(-eta * ts) * np.sqrt(1 + ts**2 / 2 + ts * np.sqrt(1 + ts**2 / 4)))
        # the Hermitian part of -G^T is [[gamma, -1/2], [-1/2, gamma]]: log-norm gamma + 1/2
        dt = 10.0 * 2 / eta / 2**averaging.DAMPING_LEVELS
        assert sup <= value <= sup * math.exp((0.5 - eta) * dt)

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            damping_constant(np.eye(2, dtype=complex), 0.1, 0.0)

    @staticmethod
    def _h(G, gamma, eta, t):
        """e^{-(gamma+eta) t} ||expm(-G^T t)||, with the shift inside expm so that it cannot overflow."""
        return np.linalg.norm(sla.expm((-G.T - (gamma + eta) * np.eye(G.shape[0])) * t), 2)

    @classmethod
    def _dense_sup(cls, G, gamma, eta, n=4001):
        """sup of e^{-(gamma+eta) t} ||expm(-G^T t)|| on a fine grid of [0, 10 d / eta]."""
        ts = np.linspace(0.0, 10.0 * G.shape[0] / eta, n)
        return max(cls._h(G, gamma, eta, t) for t in ts)

    @staticmethod
    def _normal(rng, lam, dense):
        """U diag(lam) U^H for a random unitary U: dense, or a permutation with unit phases."""
        d = len(lam)
        if dense:
            U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        else:
            U = np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
        return U @ np.diag(lam) @ U.conj().T

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_normal_cluster_closed_form(self, d):
        rng = np.random.default_rng(d)
        gamma, eta = 0.3, 0.1
        lam = -gamma + 0.04 * rng.uniform(-1.0, 1.0, d) + 0.5j * rng.standard_normal(d)
        # a normal G with spread below eta has log-norm gamma + spread: closed form, sup at t = 0,
        # in a permuted basis and in a dense unitary one alike
        for dense in (False, True):
            G = self._normal(rng, lam, dense=dense)
            assert damping_constant(G, gamma, eta) == 1.0
            assert self._dense_sup(G, gamma, eta) <= 1.0 + 1e-12

    @given(
        st.integers(2, 5),
        st.floats(0.05, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from(["permuted", "dense", "nonnormal"]),
        st.floats(0.0, 2.0),
        st.integers(0, 2**32 - 1),
    )
    @example(d=4, eta=0.0546875, gamma=1.0, shape="nonnormal", coupling=1.0, seed=0)  # expm(-G^T t) overflowed
    @settings(max_examples=40, deadline=None)
    def test_bound_brackets_dense_supremum(self, d, eta, gamma, shape, coupling, seed):
        """1.0 under the log-norm test; otherwise a raise, or a value between the dense supremum and the grid bound."""
        rng = np.random.default_rng(seed)
        spread = eta * rng.uniform(-1.0, 0.5, d)
        if rng.random() < 0.2:  # a spread beyond eta
            spread[0] = eta * rng.uniform(1.0, 1.5)
        lam = -(gamma + spread) + 1j * rng.standard_normal(d)
        if shape == "nonnormal":  # triangular, in a random unitary basis
            N = coupling * np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
            U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            G = U @ (np.diag(lam) + N) @ U.conj().T
        else:
            G = self._normal(rng, lam, dense=shape == "dense")
        self._assert_brackets(G, gamma, eta)

    @pytest.mark.parametrize("eta", [1.0, 0.3])
    def test_sampled_below_jordan_bound(self, eta):
        """The random triangular blocks once held to the Jordan ceiling, now held to the bracket."""
        rng = np.random.default_rng(3)
        lam = -0.4 + 0.1j
        for d in (2, 3, 4):
            N = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
            G = lam * np.eye(d) + N
            assert damping_constant(G, -lam.real, eta) >= 1.0
            self._assert_brackets(G, -lam.real, eta)

    def _assert_brackets(self, G, gamma, eta):
        """1.0 under the log-norm test; otherwise a raise, or a value between the dense supremum and the grid bound."""
        d = G.shape[0]
        A = -G.T
        mu = np.linalg.eigvalsh(0.5 * (A + A.conj().T))[-1]
        if mu <= gamma + eta:
            assert damping_constant(G, gamma, eta) == 1.0
            return
        if np.max(-np.linalg.eigvals(G).real) - gamma >= eta:
            with pytest.raises(ValueError, match="delta"):
                damping_constant(G, gamma, eta)
            return
        value = damping_constant(G, gamma, eta)
        # the window: [0, 10 d / eta], doubled while h(T) > 1, on the rule's grid step
        T = 10.0 * d / eta
        while self._h(G, gamma, eta, T) > 1.0:
            T *= 2.0
        dt = 10.0 * d / eta / 2**averaging.DAMPING_LEVELS
        ts = np.linspace(0.0, T, round(T / dt) + 1)
        hs = np.array([self._h(G, gamma, eta, t) for t in ts])
        # the dense supremum: the grid, refined on the two steps around its largest sample
        i = int(np.argmax(hs))
        near = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)], 201)
        dense_sup = max(hs.max(), max(self._h(G, gamma, eta, t) for t in near))
        assert dense_sup - 1e-12 <= value <= hs.max() * math.exp((mu - gamma - eta) * dt) * (1 + 1e-9)

    def test_window_doubles_until_h_falls_to_one(self):
        # h(t) = e^{-0.01 t} sigma_max([[1, 0], [-t, 1]]) is about 27 at 10 d / eta = 200 and 0.27 at 800
        gamma, eta = 0.05, 0.1
        G = np.array([[-gamma - 0.09, 1.0], [0.0, -gamma - 0.09]], dtype=complex)
        assert self._h(G, gamma, eta, 200.0) > 1.0
        value = damping_constant(G, gamma, eta)
        ts = np.linspace(0.0, 800.0, 2001)
        assert math.isfinite(value)
        assert value >= max(self._h(G, gamma, eta, t) for t in ts) - 1e-12
        # a spread just below eta keeps h(T) > 1 past the last doubling
        G = np.array([[-gamma - (eta - 1e-4), 1.0], [0.0, -gamma - (eta - 1e-4)]], dtype=complex)
        with pytest.raises(ValueError, match="still exceeds 1"):
            damping_constant(G, gamma, eta)

    @pytest.mark.parametrize("dense", [False, True])
    def test_spread_beyond_eta_raises(self, dense):
        # h(t) >= e^{(delta - eta) t} grows without bound whether or not G is normal
        rng = np.random.default_rng(7)
        gamma, eta = 0.3, 0.1
        lam = np.array([-gamma - 0.15, -gamma + 0.15 + 0.2j, -gamma + 0.05j])
        G = self._normal(rng, lam, dense=dense)
        with pytest.raises(ValueError, match=r"delta = 0\.15.*eta = 0\.1"):
            damping_constant(G, gamma, eta)
        N = np.triu(rng.standard_normal((3, 3)), 1)
        with pytest.raises(ValueError, match="delta"):
            damping_constant(np.diag(lam) + N, gamma, eta)
        with pytest.raises(ValueError, match="delta"):
            damping_constant(np.array([[-gamma - 0.15]]), gamma, eta)
        # delta == eta exactly (0.375 - 0.25 == 0.125 in binary): h >= 1 everywhere, so no window closes
        G = np.array([[-0.375, 1.0], [0.0, -0.375]], dtype=complex)
        with pytest.raises(ValueError, match=r"delta = 0\.125 equals eta = 0\.125"):
            damping_constant(G, 0.25, 0.125)


class TestSylvester:
    def test_diagonal_resolvent_closed_form(self):
        op = averaged_operator(ZERO_FLOW, NU, 4)
        spec = detecting_spectrum(op, cos_y(Lattice(4, 4)))
        syl = sylvester_constant(op, spec)
        # diagonal operator: mode (k, l) has eigenvalue -nu (k^2 + l^2) and H^2 weight 1 + k^2 + l^2;
        # the cluster's modes drop out of R (I - P)
        k2 = (op.modes[:, 0] ** 2 + op.modes[:, 1] ** 2).astype(float)
        outside = np.abs(-NU * k2 - spec.lambda_nu) > spec.cluster_tol
        for z, got in zip(syl.nodes, syl.h2_weighted_norms):
            want = np.max((1.0 + k2[outside]) / np.abs(z + NU * k2[outside]))
            assert got == pytest.approx(want, rel=1e-8)
        assert syl.value >= 1.0
        assert "not rigorous" in syl.flag

    def test_gap_and_radius(self):
        op = averaged_operator(ZERO_FLOW, NU, 4)
        spec = detecting_spectrum(op, cos_y(Lattice(4, 4)))
        syl = sylvester_constant(op, spec)
        assert syl.gap == pytest.approx(NU)  # -nu to -2 nu
        assert syl.radius == pytest.approx(NU / 2)

    @staticmethod
    def _counted_sylvester(monkeypatch, op, spec):
        """sylvester_constant with np.linalg.inv counted.

        Returns the estimate and, per size group, the number of classes stacked
        and the dtype of the stack inverted at each evaluated node.  A group
        of real blocks takes N/2 + 1 stacked inverses (nodes 0..N/2) when
        lambda_nu is real; any other group takes N.  One more inverse is
        g_inv_max's.
        """
        calls = []
        inv = np.linalg.inv

        def counting(a):
            calls.append((a.shape, a.dtype))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        syl = sylvester_constant(op, spec)
        monkeypatch.undo()
        n_nodes = averaging.SYLVESTER_NODES
        real = [not blocks.imag.any() for _, blocks in op.groups]
        counts = [n_nodes // 2 + 1 if r and spec.lambda_nu.imag == 0.0 else n_nodes for r in real]
        assert len(calls) == sum(counts) + 1
        stacked, dtypes, start = [], [], 0
        for (idx, _), count in zip(op.groups, counts):
            size = idx.shape[1]
            shapes = {shape for shape, _ in calls[start : start + count]}
            assert len(shapes) == 1
            ((m, *block),) = shapes
            assert block == [size, size]
            stacked.append(m)
            dtypes.append([dtype for _, dtype in calls[start : start + count]])
            start += count
        assert syl.resolvents == sum(m * count for m, count in zip(stacked, counts))
        return syl, stacked, dtypes

    def test_real_lambda_mirrors_nodes(self, monkeypatch):
        """A real lambda_nu evaluates only each flip pair's owner; a real stack only at nodes 0..N/2, in
        real arithmetic at the real nodes 0 and N/2 unless it holds a cluster member; the norms are
        palindromic, exactly, and match the dense oracle."""
        op = averaged_operator(SHEAR_FLOW, NU, 6)
        rho0 = cos_y(Lattice(6, 6))
        spec = detecting_spectrum(op, rho0)
        assert spec.lambda_nu.imag == 0.0
        syl, stacked, dtypes = self._counted_sylvester(monkeypatch, op, spec)
        groups = [idx for idx, _ in op.groups]
        owners = [sum(int(idx[0] <= op.dim - 1 - idx[-1]) for idx in group) for group in groups]
        assert stacked == owners
        assert sum(owners) < len(_classes(op))  # the shear's classes pair up, so partners are skipped
        members = {int(idx[0]) for idx, *_ in spec.schur_blocks}
        held = [any(int(idx[0]) in members for idx in group) for group in groups]
        assert any(held) and not all(held)  # a stack with a cluster member and one without
        half = averaging.SYLVESTER_NODES // 2
        for kinds, with_member in zip(dtypes, held):
            assert len(kinds) == half + 1  # every block of the cos-phase shear is real
            real_nodes = [j for j, kind in enumerate(kinds) if kind == np.float64]
            assert real_nodes == ([] if with_member else [0, half])
        _, _, norms = _dense_oracle(op, rho0)
        for got, key in ((syl.h1_weighted_norms, "h1w"), (syl.h2_weighted_norms, "h2w")):
            assert np.array_equal(got[1:], got[1:][::-1]), key
            np.testing.assert_allclose(got, norms[key], rtol=1e-10, atol=0.0, err_msg=key)

    def test_nodes_are_exactly_conjugate_symmetric(self):
        """Node N - j is the conjugate of node j, bit for bit, and nodes 0 and N/2 are real."""
        op = averaged_operator(SHEAR_FLOW, NU, 6)
        spec = detecting_spectrum(op, cos_y(Lattice(6, 6)))
        syl = sylvester_constant(op, spec)
        n_nodes = averaging.SYLVESTER_NODES
        mirror = -np.arange(n_nodes) % n_nodes
        assert np.array_equal(syl.nodes[mirror], syl.nodes.conj())
        assert syl.nodes[0] == spec.lambda_nu + syl.radius
        assert syl.nodes[n_nodes // 2] == spec.lambda_nu - syl.radius
        assert syl.nodes[0].imag == 0.0 and syl.nodes[n_nodes // 2].imag == 0.0

    def test_coupled_real_cluster_takes_the_half_contour(self, monkeypatch):
        """The one-class cos-phase coupled mean: a real cluster of a real block has an exactly real
        lambda_nu, so its one stack is inverted at N/2 + 1 nodes, and the estimate is the dense oracle's."""
        op = averaged_operator(COUPLED_FLOW, NU, 5)
        rho0 = cos_y(Lattice(5, 5))
        spec = detecting_spectrum(op, rho0)
        assert len(_classes(op)) == 1 and not _dense(op).imag.any()
        assert spec.lambda_nu.imag == 0.0
        assert spec.gamma_nu == -np.mean(np.diag(spec.G)).real  # the real part is the Schur trace's
        syl, stacked, dtypes = self._counted_sylvester(monkeypatch, op, spec)
        assert stacked == [1] and len(dtypes[0]) == averaging.SYLVESTER_NODES // 2 + 1
        want_spec, _, want = _dense_oracle(op, rho0)
        assert spec.gamma_nu == pytest.approx(want_spec["gamma_nu"], rel=1e-10, abs=0.0)
        assert syl.value == pytest.approx(want["value"], rel=1e-10, abs=0.0)
        for got, key in ((syl.h1_weighted_norms, "h1w"), (syl.h2_weighted_norms, "h2w")):
            np.testing.assert_allclose(got, want[key], rtol=1e-10, atol=0.0, err_msg=key)

    def test_complex_lambda_evaluates_every_node(self, monkeypatch):
        """The complex cluster of an x-mode datum has no mirror: every class at all 8 nodes, in complex
        arithmetic, matches the dense oracle."""
        op = averaged_operator(SHEAR_FLOW, NU, 8)
        rho0 = field_from_terms(Lattice(8, 8), [HarmonicTerm(1.0, 1, 0)])
        spec = detecting_spectrum(op, rho0)
        assert spec.lambda_nu.imag != 0.0
        syl, stacked, dtypes = self._counted_sylvester(monkeypatch, op, spec)
        assert stacked == [len(idx) for idx, _ in op.groups]
        assert all(kind == np.complex128 for kinds in dtypes for kind in kinds)
        _, gap, norms = _dense_oracle(op, rho0)
        assert syl.gap == pytest.approx(gap, rel=1e-10, abs=0.0)
        for got, key in ((syl.h1_weighted_norms, "h1w"), (syl.h2_weighted_norms, "h2w")):
            np.testing.assert_allclose(got, norms[key], rtol=1e-10, atol=0.0, err_msg=key)

    def test_chain_at_cutoff_32_stays_small(self):
        """The chain holds class blocks, never an n x n matrix: on the fast_shear_mean flow at cutoff 32
        (n = 4224, a dense complex matrix of 285 MB) the traced peak of the operator, the detecting
        spectrum and the Sylvester constant stays below 50 MB."""
        assert callable(sla.schur)  # scipy.linalg is imported before tracing, so its import is not counted
        scenario = Scenario.from_file(EXTRA_DIR / "fast_shear_mean.json")
        lattice = Lattice(32, 32)
        rho0 = field_from_terms(lattice, scenario.initial_terms)
        tracemalloc.start()
        try:
            op = averaged_operator(scenario.flow_spec, scenario.nu, lattice)
            syl = sylvester_constant(op, detecting_spectrum(op, rho0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.dim == 4224 and syl.value >= 1.0
        assert peak < 50e6

    def test_degenerate_gap_raises(self, monkeypatch):
        op = averaged_operator(ZERO_FLOW, NU, 4)
        spec = detecting_spectrum(op, cos_y(Lattice(4, 4)))
        assert spec.cluster_tol == averaging.CLUSTER_TOL * NU
        monkeypatch.setattr(averaging, "GAP_FLOOR", 1.0 / spec.cluster_tol)  # a floor of 1.0 above the gap NU
        with pytest.raises(ClusterIsolationError, match="below isolation floor"):
            sylvester_constant(op, spec)


class TestFastCertificate:
    def test_arithmetic_with_unit_constants(self, monkeypatch):
        # D = 1, C_S = 1, C_R = 1, M = 1, S_nu = 3 -> K = 9e6, A0 >= 3.6e7
        lat = Lattice(2, 2)
        spec = DetectingSpectrum(
            eigenvalues=np.array([-0.1 + 0j, -0.4 + 0j]),
            lambda_nu=-0.1 + 0j,
            gamma_nu=0.1,
            d_nu=1,
            G=np.array([[-0.1 + 0j]]),
            q0=np.array([0.5 + 0j]),
            Q=0.5,
            K0=1.0,
            K2=1.9,
            g_norm=0.1,
            residual=0.0,
            cluster_tol=1e-7,
            schur_blocks=(),
        )
        syl = SylvesterEstimate(1.0, 0.3, 0.15, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))
        rho0 = cos_y(lat)
        monkeypatch.setattr(averaging, "c_r_constant", lambda period: 1.0)
        cert = fast_certificate(ZERO_FLOW, rho0, NU, 0.5, spec, syl)
        assert cert.C_R == 1.0
        assert cert.S_nu == pytest.approx(3.0)
        assert cert.K_nu == pytest.approx(9.0e6)
        assert cert.a0_terms["bundle_contraction_4K"] == pytest.approx(3.6e7)
        assert cert.A0 >= 3.6e7
        assert cert.A0 == pytest.approx(max(cert.a0_terms.values()))

    def test_small_viscosity_eta_choice(self):
        op = averaged_operator(ZERO_FLOW, NU, 4)
        spec = detecting_spectrum(op, cos_y(Lattice(4, 4)))
        syl = sylvester_constant(op, spec)
        cert = fast_certificate(ZERO_FLOW, cos_y(Lattice(4, 4)), NU, None, spec, syl)
        assert cert.eta == pytest.approx(NU * 1.0)  # nu * lambda1
        assert cert.c_A == pytest.approx(spec.gamma_nu + 2 * NU)

    def test_c_r_constant(self):
        assert c_r_constant(2 * math.pi) == pytest.approx(math.sqrt(4 * math.pi))
        assert c_r_constant(1.0) == pytest.approx(1.0 * math.sqrt(2.0))
        for L in (0.5, 1.0, 2 * math.pi, 20.0):
            assert c_r_constant(L) >= 1.0


class TestEvolve2D:
    def test_zero_flow_is_exact_heat(self):
        lat = Lattice(4, 4)
        rho0 = field_from_terms(lat, [HarmonicTerm(1.0, 1, 1), HarmonicTerm(0.5, 0, 2)])
        traj = evolve_2d(rho0, ZERO_FLOW, 0.0, NU, np.array([0.7, 1.5]))
        for t, f in zip(traj.times, traj.fields):
            want = rho0.coeff * np.exp(-NU * lat.weight_grid() * t)
            assert np.max(np.abs(f.coeff - want)) <= 1e-12

    def test_steady_shear_matches_mode_solver(self):
        lat = Lattice(6, 6)
        rho0 = field_from_terms(lat, [HarmonicTerm(1.0, 1, 0)])
        t2d = evolve_2d(rho0, SHEAR_FLOW, 0.0, NU, np.array([1.0]), dt=2e-3)
        t1d = evolve_shear(rho0, preset_shear("couette"), NU, np.array([1.0]), dt=2e-3)
        assert np.max(np.abs(t2d.fields[0].coeff - t1d.fields[0].coeff)) <= 1e-8

    def test_l2_nonincreasing_and_mean_free(self):
        lat = Lattice(6, 6)
        rho0 = field_from_terms(lat, [HarmonicTerm(1.0, 1, 1)])
        flow = FlowSpec((FlowTerm(1.0, 1, 0, "cos", "cos"), FlowTerm(1.0, 0, 1, "cos")), period=1.0)
        coarse = evolve_2d(rho0, flow, 30.0, NU, np.array([0.5]))
        traj = evolve_2d(rho0, flow, 30.0, NU, coarse.diag_times)  # sampled at every step edge
        assert np.all(np.diff(l2_norm(traj) ** 2) <= 1e-12)
        assert all(abs(f[(0, 0)]) == 0.0 for f in traj.fields)

    def test_energy_identity_on_step_edges(self):
        """d/dt (1/2 ||rho||^2) = -nu ||grad rho||^2 on every step of the fast flow at A = 100."""
        scenario = Scenario.from_file(EXTRA_DIR / "fast_shear_mean.json")
        coarse = evolve_2d(scenario.rho0, scenario.flow_spec, 100.0, scenario.nu, np.array([0.1]))
        traj = evolve_2d(scenario.rho0, scenario.flow_spec, 100.0, scenario.nu, coarse.diag_times)
        assert dissipation_report(traj).max_residual <= 1e-8

    def test_nonpositive_dt_rejected(self):
        rho0 = cos_y(Lattice(4, 4))
        for dt in (0.0, -0.005):
            with pytest.raises(FieldError, match="step size must be positive"):
                evolve_2d(rho0, SHEAR_FLOW, 1.0, NU, np.array([0.1]), dt=dt)

    @pytest.mark.parametrize(
        "nu, A", [(0.0, 1.0), (float("nan"), 1.0), (float("inf"), 1.0), (NU, -1.0), (NU, float("nan"))]
    )
    def test_nonfinite_or_out_of_range_nu_and_A_rejected(self, nu, A):
        with pytest.raises(FieldError, match="finite"):
            evolve_2d(cos_y(Lattice(4, 4)), SHEAR_FLOW, A, nu, np.array([0.1]))

    def test_error_halves_when_A_doubles(self):
        # phase-locked: A*T multiple of the phase period for both A values
        lat = Lattice(6, 6)
        rho0 = field_from_terms(lat, [HarmonicTerm(1.0, 1, 0)])
        flow = FlowSpec(
            (FlowTerm(1.0, 1, 0, "cos", "cos"), FlowTerm(1.0, 0, 1, "cos", "sin")), period=1.0
        )
        T = 0.5
        heat = rho0.coeff * np.exp(-NU * lat.weight_grid() * T)
        errs = []
        for A in (40.0, 80.0):
            dt = 0.05 / (A * flow.omega + flow.lip * lat.kmax)
            traj = evolve_2d(rho0, flow, A, NU, np.array([T]), dt=dt)
            errs.append(float(np.linalg.norm(traj.fields[0].coeff - heat)))
        ratio = errs[0] / errs[1]
        assert 1.6 <= ratio <= 2.4


def _reference_evolve_2d(rho0, flow, A, nu, times):
    """The Strang/RK4 stepper on the lattice array: slice-loop drift, heat factors recomputed each step."""
    lattice = rho0.lattice
    dt_target = min(1e-2, 0.2 / (A * flow.omega + flow.lip * lattice.kmax + 1e-30))
    velocities = [flow.mode_velocity(m) for m in averaging._TIME_MODES]
    w = lattice.weight_grid()

    def rhs(theta, c):
        phase = flow.omega * theta
        return _slice_loop_drift(velocities, lattice, c, np.array([-1.0, -math.cos(phase), -math.sin(phase)]))

    def step(coeff, t0, h):
        half = np.exp(-0.5 * nu * w * h)
        coeff = coeff * half
        k1 = rhs(A * t0, coeff)
        k2 = rhs(A * (t0 + 0.5 * h), coeff + 0.5 * h * k1)
        k3 = rhs(A * (t0 + 0.5 * h), coeff + 0.5 * h * k2)
        k4 = rhs(A * (t0 + h), coeff + h * k3)
        coeff = (coeff + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)) * half
        coeff[lattice.kmax, lattice.lmax] = 0.0
        return coeff

    def advance(coeff, t, h, n):
        for i in range(n):
            coeff = step(coeff, t + i * h, h)
        return coeff

    samples, diag_times = _march(times, dt_target, rho0.coeff, advance)
    return FieldTrajectory(nu, np.asarray(times), lattice, samples, diag_times)


class TestEvolve2DReference:
    """evolve_2d against the reference stepper on the shipped fast flows, at horizon 0.2."""

    # CFL-capped step counts per 0.1 segment at A = 100: lattices 8 and 6
    @pytest.mark.parametrize("name, per_segment", [("fast_shear_mean", 319), ("fast_averaging_study", 318)])
    @pytest.mark.parametrize("fast", [True, False], ids=["A", "A0"])
    def test_matches_reference_stepper(self, name, per_segment, fast):
        scenario = Scenario.from_file(EXTRA_DIR / f"{name}.json")
        A = scenario.A if fast else 0.0
        times = np.linspace(0.0, 0.2, 3)
        got = evolve_2d(scenario.rho0, scenario.flow_spec, A, scenario.nu, times)
        want = _reference_evolve_2d(scenario.rho0, scenario.flow_spec, A, scenario.nu, times)
        assert np.array_equal(got.diag_times, want.diag_times)
        if fast:
            assert got.diag_times.size - 1 == 2 * per_segment
        for f, g in zip(got.fields, want.fields):
            assert np.max(np.abs(f.coeff - g.coeff)) <= 1e-12 * np.max(np.abs(g.coeff))

    @given(
        flow_terms,
        st.sampled_from([0.5, 1.0, 1.7, 2 * math.pi]),
        st.integers(3, 6),
        st.integers(1, 6),
        st.one_of(st.just(0.0), st.floats(1.0, 200.0)),
        st.lists(st.sampled_from(["one", "chunk", "chunks"]), min_size=1, max_size=3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_flows_match_reference_stepper(self, terms, period, size, band, A, segments, at_zero, seed):
        flow = FlowSpec(tuple(FlowTerm(*t) for t in terms), period=period)
        lattice = Lattice(size, size)
        rng = np.random.default_rng(seed)
        coeff = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        coeff = 0.5 * (coeff + np.conj(coeff[::-1, ::-1]))  # a real field
        k, l = np.meshgrid(lattice.k_values(), lattice.l_values(), indexing="ij")
        coeff[(np.abs(k) > band) | (np.abs(l) > band)] = 0.0
        coeff[lattice.kmax, lattice.lmax] = 0.0
        rho0 = SpectralField2D(lattice, coeff)
        # each segment takes 1 step, exactly one chunk of steps, or more than one chunk
        chunk = averaging._WEIGHT_CHUNK
        steps = {"one": 1, "chunk": chunk, "chunks": 2 * chunk + 3}
        dt = min(1e-2, 0.2 / (A * flow.omega + flow.lip * lattice.kmax + 1e-30))
        times = np.cumsum([(steps[s] - 0.5) * dt for s in segments])
        if at_zero:
            times = np.concatenate(([0.0], times))
        got = evolve_2d(rho0, flow, A, NU, times)
        want = _reference_evolve_2d(rho0, flow, A, NU, times)
        assert np.array_equal(got.diag_times, want.diag_times)
        assert got.diag_times.size - 1 == sum(steps[s] for s in segments)
        for f, g in zip(got.fields, want.fields):
            assert np.max(np.abs(f.coeff - g.coeff)) <= 1e-12 * np.max(np.abs(g.coeff))


class TestObservables:
    def test_heat_observable_decays_exactly(self):
        lat = Lattice(4, 4)
        rho0 = cos_y(lat)
        phi = cos_y(lat)
        traj = evolve_2d(rho0, ZERO_FLOW, 0.0, NU, np.linspace(0.0, 2.0, 5))
        q = observable_series(traj, [phi])
        for i, t in enumerate(traj.times):
            assert q[i, 0] == pytest.approx(0.5 * math.exp(-NU * t), rel=1e-12)

    def test_initial_value_is_pairing(self):
        op = averaged_operator(SHEAR_FLOW, NU, 6)
        rho0 = field_from_terms(Lattice(6, 6), [HarmonicTerm(1.0, 1, 0)])
        spec = detecting_spectrum(op, rho0)
        traj = evolve_2d(rho0, SHEAR_FLOW, 0.0, NU, np.array([0.0]))
        q = observable_series(traj, _basis(op, spec))
        assert np.linalg.norm(q[0]) == pytest.approx(spec.Q, rel=1e-12)

    def test_steady_flow_eigen_observable_law(self):
        cutoff = 8
        op = averaged_operator(SHEAR_FLOW, NU, cutoff)
        rho0 = field_from_terms(Lattice(cutoff, cutoff), [HarmonicTerm(1.0, 1, 0)])
        spec = detecting_spectrum(op, rho0)
        times = np.linspace(0.0, 2.0, 9)
        traj = evolve_2d(rho0, SHEAR_FLOW, 0.0, NU, times, dt=1e-3)
        q = observable_series(traj, _basis(op, spec))
        q0 = q[0]
        for i, t in enumerate(times):
            pred = sla.expm(spec.G.T * t) @ q0
            assert np.linalg.norm(q[i] - pred) <= 1e-6 * np.linalg.norm(q0)


class TestFastBound:
    def _pipeline(self, flow, rho_terms, cutoff, nu=NU):
        lat = Lattice(cutoff, cutoff)
        rho0 = field_from_terms(lat, rho_terms)
        op = averaged_operator(flow, nu, cutoff)
        spec = detecting_spectrum(op, rho0)
        syl = sylvester_constant(op, spec)
        cert = fast_certificate(flow, rho0, nu, None, spec, syl)
        return rho0, cert

    def test_zero_flow_reduces_to_heat_comparison(self):
        rho0, cert = self._pipeline(ZERO_FLOW, [HarmonicTerm(1.0, 0, 1)], 4)
        traj = evolve_2d(rho0, ZERO_FLOW, 1.0, NU, np.linspace(0.0, 2.0, 9))
        rep = check_fast_bound(traj, cert, 1.0)
        assert rep.passed
        assert set(rep.extras["a0_terms"]) == {
            "bundle_contraction_4K",
            "nu",
            "bundle_derivative_64K2_over_nu",
            "bundle_quadratic_1000CS_K",
            "pairing_2K_rho_over_Q",
            "absorption_DK_over_eta",
        }

    def test_steady_flow_fitted_rate_below_admissible(self):
        rho0, cert = self._pipeline(SHEAR_FLOW, [HarmonicTerm(1.0, 0, 1)], 6)
        times = np.linspace(0.0, 2.0, 9)
        traj = evolve_2d(rho0, SHEAR_FLOW, 1.0, NU, times, dt=2e-3)
        rep = check_fast_bound(traj, cert, 1.0)
        assert rep.passed
        l2s = l2_norm(traj)
        fitted = -(math.log(l2s[-1]) - math.log(l2s[0])) / (times[-1] - times[0])
        assert fitted <= rep.extras["rate_used"]

    def test_fast_flow_two_frequencies_pass(self):
        flow = FlowSpec(
            (FlowTerm(1.0, 0, 1, "cos", "const"), FlowTerm(1.0, 1, 0, "cos", "cos")), period=1.0
        )
        rho0, cert = self._pipeline(flow, [HarmonicTerm(1.0, 0, 1)], 8)
        for A in (50.0, 100.0):
            traj = evolve_2d(rho0, flow, A, NU, np.linspace(0.0, 1.0, 6))
            rep = check_fast_bound(traj, cert, A)
            assert rep.passed
            assert rep.extras["regime"] == "sharper_A_dependent"

    @pytest.mark.parametrize("guard", ["c_r_constant", "rate_for", "check_fast_bound"])
    def test_nan_argument_rejected(self, guard):
        # each guard is written as not (x > 0), which NaN fails
        rho0, cert = self._pipeline(ZERO_FLOW, [HarmonicTerm(1.0, 0, 1)], 4)
        traj = evolve_2d(rho0, ZERO_FLOW, 1.0, NU, np.linspace(0.0, 0.2, 2))
        call = {
            "c_r_constant": lambda: c_r_constant(math.nan),
            "rate_for": lambda: cert.rate_for(math.nan),
            "check_fast_bound": lambda: check_fast_bound(traj, cert, math.nan),
        }[guard]
        with pytest.raises(ValueError, match="positive|A > 0"):
            call()


def test_certify_scaling_script_smoke():
    """scripts/certify_scaling.py prints one JSON line per cutoff, with slopes from the second on;
    ``--mean coupled`` certifies the one-class mean."""
    root = EXTRA_DIR.parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    script = str(root / "scripts" / "certify_scaling.py")

    def run(*args):
        proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True, env=env, check=True)
        return [json.loads(line) for line in proc.stdout.splitlines()]

    lines = run("--cutoffs", "4", "6")
    stages = {"averaged_operator", "detecting_spectrum", "sylvester_constant", "fast_certificate", "total"}
    assert [line["cutoff"] for line in lines] == [4, 6]
    for line in lines:
        c = line["cutoff"]
        assert line["n"] == (2 * c + 1) ** 2 - 1
        assert sum(int(s) * m for s, m in line["class_sizes"].items()) == line["n"]
        assert len(line["class_sizes"]) > 1  # the shear mean splits into classes
        # every block of the cos-phase shear mean is real, and its classes pair up under the flip:
        # one owner of each pair, at nodes 0..N/2
        assert line["real_classes"] == sum(line["class_sizes"].values())
        assert line["resolvents"] == line["real_classes"] // 2 * (averaging.SYLVESTER_NODES // 2 + 1)
        assert set(line["stages_s"]) == stages and all(t > 0.0 for t in line["stages_s"].values())
        assert line["peak_rss_mb"] > 0.0
    assert lines[0]["slope"] is None
    assert lines[1]["peak_rss_mb"] >= lines[0]["peak_rss_mb"]  # the process's peak so far
    assert set(lines[1]["slope"]) == stages and all(math.isfinite(s) for s in lines[1]["slope"].values())
    (coupled,) = run("--mean", "coupled", "--cutoffs", "4")
    assert coupled["cutoff"] == 4 and coupled["n"] == 80
    assert coupled["class_sizes"] == {"80": 1}
    assert coupled["real_classes"] == 1  # a real cluster of the real block: the half contour
    assert coupled["resolvents"] == averaging.SYLVESTER_NODES // 2 + 1
    assert set(coupled["stages_s"]) == stages and coupled["slope"] is None
