"""Coefficient generation: exact oracles, sector bounds, growth bounds."""

import tracemalloc
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from seqprecond.poly import (
    _RADII,
    MAX_DEGREE,
    CoefficientVector,
    ComplexSector,
    chebyshev_exact,
    chebyshev_monic,
    differencing,
    eval_complex,
    legendre_exact,
    legendre_monic,
    sector_grid,
    sup_on_sector,
)


def chebyshev_by_formula(n: int) -> list[Fraction]:
    """Independent oracle: explicit alternating-sum formula for monic T_n.

    Coefficient of x^(n-2m) is n (-1)^m (n-m-1)! / (m! (n-2m)!) / 4^m.
    """
    if n == 0:
        return [Fraction(1)]
    out = [Fraction(0)] * (n + 1)
    for m in range(n // 2 + 1):
        num = Fraction(n) * factorial(n - m - 1)
        den = factorial(m) * factorial(n - 2 * m) * 4**m
        out[2 * m] = (-1) ** m * num / den
    return out


def legendre_by_formula(n: int) -> list[Fraction]:
    """Independent oracle: binomial form of the monic Legendre coefficients.

    Coefficient of x^(n-2k) is (-1)^k C(n,k) C(2n-2k,n) / C(2n,n).
    """
    out = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        out[2 * k] = Fraction((-1) ** k * comb(n, k) * comb(2 * n - 2 * k, n), comb(2 * n, n))
    return out


class TestExactCoefficients:
    def test_chebyshev_frozen_values(self):
        assert chebyshev_exact(0) == [1]
        assert chebyshev_exact(1) == [1, 0]
        assert chebyshev_exact(2) == [1, 0, Fraction(-1, 2)]
        assert chebyshev_exact(3) == [1, 0, Fraction(-3, 4), 0]

    def test_legendre_frozen_values(self):
        assert legendre_exact(0) == [1]
        assert legendre_exact(1) == [1, 0]
        assert legendre_exact(2) == [1, 0, Fraction(-1, 3)]
        assert legendre_exact(3) == [1, 0, Fraction(-3, 5), 0]

    @pytest.mark.parametrize("n", range(0, MAX_DEGREE + 1))
    def test_chebyshev_matches_explicit_formula_exactly(self, n):
        formula = chebyshev_by_formula(n)
        assert chebyshev_exact(n) == formula
        assert chebyshev_monic(n).coeffs.tolist() == [float(c) for c in formula]

    @pytest.mark.parametrize("n", range(0, MAX_DEGREE + 1))
    def test_legendre_matches_explicit_formula_exactly(self, n):
        formula = legendre_by_formula(n)
        assert legendre_exact(n) == formula
        assert legendre_monic(n).coeffs.tolist() == [float(c) for c in formula]

    @pytest.mark.parametrize("gen", [chebyshev_monic, legendre_monic])
    def test_monic_and_family(self, gen):
        c = gen(7)
        assert c.coeffs[0] == 1.0
        assert c.degree == 7
        assert len(c) == 8

    def test_differencing_preset(self):
        np.testing.assert_array_equal(differencing().coeffs, [1.0, -1.0])

    def test_degree_cap_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            chebyshev_monic(MAX_DEGREE + 1)
        with pytest.raises(ValueError, match="exceeds"):
            legendre_monic(61)
        chebyshev_monic(MAX_DEGREE)  # at the cap still fine

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_monic(-1)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError, match="monic"):
            CoefficientVector(np.array([2.0, 0.0, -0.5]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CoefficientVector(np.array([1.0, np.nan]))

    def test_l1_norm(self):
        assert chebyshev_monic(5).l1 == pytest.approx(1 + 1.25 + 0.3125, abs=0)


class TestEval:
    def test_constant(self):
        assert eval_complex(CoefficientVector(np.array([1.0])), 3.7 + 2j) == 1.0

    def test_frozen_points(self):
        c2 = chebyshev_monic(2)
        assert eval_complex(c2, 1.0) == pytest.approx(0.5, abs=0)
        lin = CoefficientVector(np.array([1.0, -1.0]))
        assert eval_complex(lin, 1j) == pytest.approx(1j - 1, abs=0)

    def test_vectorized_matches_scalar(self):
        c = legendre_monic(4)
        z = np.array([0.3 + 0.1j, -0.5, 1.0, 0.0])
        vec = eval_complex(c, z)
        for i, zi in enumerate(z):
            assert vec[i] == eval_complex(c, complex(zi))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cosine_identity(self, n):
        # On the real segment the monic Chebyshev is cos(n theta) / 2^(n-1).
        theta = np.linspace(0, np.pi, 1001)
        vals = eval_complex(chebyshev_monic(n), np.cos(theta).astype(complex))
        target = np.cos(n * theta) / 2 ** (n - 1)
        assert np.max(np.abs(vals - target)) < 1e-12


class TestGrowthBound:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_chebyshev_coefficient_growth(self, n):
        # max_k |c_k| <= 2^(0.3 n), verified in exact rational arithmetic
        # by comparing tenth powers against the integer 2^(3n).
        mx = max(abs(c) for c in chebyshev_exact(n))
        assert mx**10 <= Fraction(2) ** (3 * n)


class TestSector:
    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            ComplexSector(-0.1)
        with pytest.raises(ValueError):
            ComplexSector(1.5)
        ComplexSector(0.0)
        ComplexSector(1.0)

    def test_grid_shape_and_extremes(self):
        g = sector_grid(ComplexSector(0.5), 8)
        assert g.shape == (9, 9)
        assert g[0, 0] == 0
        assert abs(abs(g[-1, -1]) - 1) < 1e-15
        assert np.angle(g[-1, -1]) == pytest.approx(0.5, abs=1e-15)

    def test_sup_constant_and_linear(self):
        assert sup_on_sector(CoefficientVector(np.array([1.0])), ComplexSector(0.3)) == 1.0
        # p(x) = x attains its max modulus 1 on the unit arc (up to 1 ulp in |e^{i theta}|)
        lin = sup_on_sector(CoefficientVector(np.array([1.0, 0.0])), ComplexSector(0.5))
        assert lin == pytest.approx(1.0, abs=1e-15)

    def test_sup_chebyshev_sector_bound(self):
        val = sup_on_sector(chebyshev_monic(5), ComplexSector(1 / (64 * 25)), 256)
        assert val <= 0.125

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sector_decay_bound(self, n):
        # |M_n(z)| <= 2^(2-n) on the narrow sector of half-angle 1/(64 n^2).
        sector = ComplexSector(1 / (64 * n * n))
        assert sup_on_sector(chebyshev_monic(n), sector, 128) <= 2.0 ** (2 - n)

    def test_sup_monotone_under_refinement(self):
        c = chebyshev_monic(6)
        sector = ComplexSector(0.02)
        s64 = sup_on_sector(c, sector, 64)
        s128 = sup_on_sector(c, sector, 128)
        s192 = sup_on_sector(c, sector, 192)
        assert s64 <= s128 <= s192 or (s64 <= s192 and s64 <= s128)
        # exact-subset property: coarse suprema never exceed refined ones
        assert s64 <= s128
        assert s64 <= s192

    # d + 1 radii: one block, a whole number of blocks, a partial last block
    @pytest.mark.parametrize("d", [1, _RADII - 1, 4 * _RADII - 1, 4 * _RADII + 2, 512])
    @pytest.mark.parametrize("beta", [0.0, 0.02, 0.5, 1.0])
    @pytest.mark.parametrize("c", [[1.0], [1.0, -0.9], chebyshev_monic(5).coeffs,
                                   legendre_monic(9).coeffs, [1.0, 3.0, -2.5, 0.25, 7.0]])
    def test_sup_by_blocks_of_radii_is_the_grid_max_bit_for_bit(self, c, beta, d):
        sector = ComplexSector(beta)
        assert sup_on_sector(c, sector, d) == np.abs(eval_complex(c, sector_grid(sector, d))).max()

    def test_sup_holds_no_grid_sized_array(self):
        # the whole default grid is 513 x 513 complex values, 4.2 MB
        c = chebyshev_monic(5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sup_on_sector(c, ComplexSector(0.1))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize("make, error, fragment", [
    (lambda: CoefficientVector(np.array([])), ValueError, "nonempty 1-d array"),
    (lambda: CoefficientVector(np.eye(2)), ValueError, "nonempty 1-d array"),
    (lambda: chebyshev_monic(2.0), TypeError, "degree must be an integer, got float"),
    (lambda: sector_grid(ComplexSector(0.5), 0), ValueError, "grid_density must be >= 1"),
], ids=["empty-vector", "2-d-vector", "float-degree", "no-grid"])
def test_an_argument_out_of_range_is_named(make, error, fragment):
    with pytest.raises(error, match=fragment):
        make()
