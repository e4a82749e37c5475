import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len as scipy_next_fast_len

from mixlab.spectral import (
    FieldError,
    GridError,
    HarmonicTerm,
    Lattice,
    SpectralField2D,
    embed,
    field_from_json,
    field_from_terms,
    field_to_json,
    grid_sample,
    hneg1_norm,
    l2_norm,
    low_block_energy,
    mixing_scale,
    next_fast_len,
    pair_bilinear,
    synthesize,
    x_mode,
    zeros,
)

SQRT2 = math.sqrt(2.0)


def cos_y(lattice=Lattice(4, 4), n=1):
    return field_from_terms(lattice, [HarmonicTerm(1.0, 0, n)])


def random_field(lattice: Lattice, seed: int, real=True) -> SpectralField2D:
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    if real:
        coeff = 0.5 * (coeff + np.conj(coeff[::-1, ::-1]))
    coeff[lattice.kmax, lattice.lmax] = 0.0
    return SpectralField2D(lattice, coeff)


lattices = st.builds(Lattice, st.integers(1, 6), st.integers(1, 6))
seeds = st.integers(0, 2**31)


class TestNorms:
    def test_l2_cos_y(self):
        assert l2_norm(cos_y()) == pytest.approx(1.0 / SQRT2, rel=1e-14)

    def test_l2_zero_field(self):
        assert l2_norm(zeros(Lattice(3, 3))) == 0.0

    def test_l2_two_term_field(self):
        f = field_from_terms(Lattice(2, 2), [HarmonicTerm(1.0, 1, 0, "sin"), HarmonicTerm(1.0, 0, 2)])
        # Parseval oracle: four coefficients of modulus 1/2
        assert l2_norm(f) == pytest.approx(1.0, rel=1e-14)

    def test_hneg1_cos_ny(self):
        f = cos_y(Lattice(1, 4), n=3)
        assert hneg1_norm(f) == pytest.approx((1.0 / SQRT2) / 3.0, rel=1e-12)

    def test_hneg1_cos_y(self):
        assert hneg1_norm(cos_y()) == pytest.approx(1.0 / SQRT2, rel=1e-14)

    def test_hneg1_two_term_field(self):
        f = field_from_terms(Lattice(2, 2), [HarmonicTerm(1.0, 1, 0, "sin"), HarmonicTerm(1.0, 0, 2)])
        # direct Fourier sum: 1/2 * 1 + 1/2 * 1/4
        assert hneg1_norm(f) == pytest.approx(math.sqrt(0.625), rel=1e-14)

    def test_hneg1_rejects_nonzero_mean(self):
        f = cos_y()
        f.coeff[f.lattice.kmax, f.lattice.lmax] = 0.3  # mutate behind the validator
        with pytest.raises(FieldError):
            hneg1_norm(f)

    def test_mixing_scale_sharpness_mode(self):
        nu = 0.25
        n = math.ceil(1.0 / nu)
        f = cos_y(Lattice(1, n), n=n)
        assert mixing_scale(f) == pytest.approx(1.0 / n, abs=1e-15)

    def test_mixing_scale_lowest_mode_saturates(self):
        assert mixing_scale(cos_y()) == pytest.approx(1.0, rel=1e-14)

    def test_mixing_scale_two_term_field(self):
        f = field_from_terms(Lattice(2, 2), [HarmonicTerm(1.0, 1, 0, "sin"), HarmonicTerm(1.0, 0, 2)])
        assert mixing_scale(f) == pytest.approx(math.sqrt(0.625), rel=1e-13)

    def test_mixing_scale_zero_field_rejected(self):
        with pytest.raises(FieldError):
            mixing_scale(zeros(Lattice(2, 2)))

    @given(lattices, seeds)
    @settings(max_examples=30, deadline=None)
    def test_hneg1_below_l2(self, lattice, seed):
        f = random_field(lattice, seed)
        assert hneg1_norm(f) <= l2_norm(f) * (1 + 1e-12)


class TestModes:
    def test_x_mode_product_datum(self):
        # cos x cos y = 1/2 cos(x+y) + 1/2 cos(x-y)
        f = field_from_terms(
            Lattice(2, 2), [HarmonicTerm(0.5, 1, 1), HarmonicTerm(0.5, 1, -1)]
        )
        prof = x_mode(f, 1)
        assert prof.coeff[prof.lmax + 1] == pytest.approx(0.25)
        assert prof.coeff[prof.lmax - 1] == pytest.approx(0.25)

    def test_x_mode_of_x_independent_field(self):
        prof = x_mode(cos_y(), 1)
        assert prof.l2() == 0.0

    def test_x_mode_out_of_lattice(self):
        with pytest.raises(FieldError):
            x_mode(cos_y(), 7)

    @given(lattices, seeds)
    @settings(max_examples=30, deadline=None)
    def test_parseval_mode_sum(self, lattice, seed):
        f = random_field(lattice, seed)
        total = sum(x_mode(f, k).l2() ** 2 for k in range(-lattice.kmax, lattice.kmax + 1))
        assert total == pytest.approx(l2_norm(f) ** 2, rel=1e-12)

    def test_low_block_outside_support(self):
        prof = x_mode(cos_y(Lattice(1, 4), n=3), 0)
        assert low_block_energy(prof, 2) == 0.0
        assert low_block_energy(prof, 3) == pytest.approx(0.5)

    @given(lattices, seeds, st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_low_block_monotone_and_split(self, lattice, seed, n):
        f = random_field(lattice, seed)
        prof = x_mode(f, min(1, lattice.kmax))
        e_n = low_block_energy(prof, n)
        assert e_n <= low_block_energy(prof, n + 1) + 1e-15
        total = prof.l2() ** 2
        high = total - e_n
        assert e_n + high == pytest.approx(total, rel=1e-12)
        assert low_block_energy(prof, prof.lmax) == pytest.approx(total, rel=1e-12)


class TestGridTransforms:
    def test_cos_y_samples(self):
        f = cos_y(Lattice(1, 1))
        vals = grid_sample(f, 8, 8)
        y = 2 * np.pi * np.arange(8) / 8
        assert np.allclose(vals, np.tile(np.cos(y), (8, 1)), atol=1e-14)

    @given(lattices, seeds)
    @settings(max_examples=25, deadline=None)
    def test_round_trip_identity(self, lattice, seed):
        f = random_field(lattice, seed)
        g = synthesize(grid_sample(f), lattice)
        assert np.max(np.abs(g.coeff - f.coeff)) <= 1e-12 * max(1.0, np.max(np.abs(f.coeff)))

    def test_grid_product_convolution(self):
        lat = Lattice(2, 2)
        fx = field_from_terms(lat, [HarmonicTerm(1.0, 1, 0)])
        fy = field_from_terms(lat, [HarmonicTerm(1.0, 0, 1)])
        prod = grid_sample(fx, 16, 16) * grid_sample(fy, 16, 16)
        g = synthesize(prod, lat)
        for sk in (1, -1):
            for sl in (1, -1):
                assert g[(sk, sl)] == pytest.approx(0.25, abs=1e-14)

    def test_grid_too_small(self):
        with pytest.raises(GridError):
            grid_sample(cos_y(), 4, 4)

    def test_next_fast_len_matches_scipy(self):
        """The grid lengths are those scipy.fft.next_fast_len picks, so no grid size moves."""
        sizes = range(1, 20001)
        assert [next_fast_len(n) for n in sizes] == [scipy_next_fast_len(n) for n in sizes]
        with pytest.raises(ValueError, match="at least 1"):
            next_fast_len(0)


class TestStructure:
    def test_mean_zero_enforced(self):
        coeff = np.zeros((3, 3), dtype=complex)
        coeff[1, 1] = 1.0
        with pytest.raises(FieldError):
            SpectralField2D(Lattice(1, 1), coeff)

    def test_conjugate_symmetry_validation(self):
        coeff = np.zeros((3, 3), dtype=complex)
        coeff[2, 2] = 1.0  # (1,1) without its mirror
        with pytest.raises(FieldError):
            SpectralField2D(Lattice(1, 1), coeff, validate_real=True)

    def test_lattice_cutoffs_positive(self):
        with pytest.raises(FieldError):
            Lattice(0, 4)

    def test_embed_preserves_coefficients(self):
        f = cos_y(Lattice(2, 2))
        g = embed(f, Lattice(4, 5))
        assert g[(0, 1)] == f[(0, 1)]
        assert l2_norm(g) == pytest.approx(l2_norm(f), rel=1e-15)

    @given(lattices, seeds)
    @settings(max_examples=20, deadline=None)
    def test_json_round_trip(self, lattice, seed):
        f = random_field(lattice, seed, real=False)
        blob = json.dumps(field_to_json(f))
        g = field_from_json(json.loads(blob))
        assert g.lattice == f.lattice
        assert np.allclose(g.coeff, f.coeff, atol=0)

    def test_pair_bilinear_is_integral_of_product(self):
        lat = Lattice(2, 2)
        f = field_from_terms(lat, [HarmonicTerm(1.0, 0, 1)])
        g = field_from_terms(lat, [HarmonicTerm(1.0, 0, 1)])
        # integral of cos^2 y = 1/2 under the normalized measure
        assert pair_bilinear(f, g) == pytest.approx(0.5)
