"""Convolution and reconstruction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqprecond.dynsys import gaussian_inputs
from seqprecond.learners import lagged
from seqprecond.poly import CoefficientVector, chebyshev_monic, differencing
from seqprecond.precond import convolve, reconstruct_prediction


def cv(*coeffs):
    return CoefficientVector(np.array(coeffs, dtype=float))


class TestConvolve:
    def test_identity_coefficients(self):
        y = gaussian_inputs(20, 3, 0)
        np.testing.assert_array_equal(convolve(y, cv(1.0)), y)

    def test_differencing_of_ramp(self):
        out = convolve(np.array([1.0, 2.0, 3.0]), differencing())
        np.testing.assert_allclose(out[:, 0], [1.0, 1.0, 1.0], atol=1e-15)

    def test_impulse_reproduces_coefficients(self):
        c = cv(1.0, 0.0, -0.5)
        imp = np.zeros(5); imp[0] = 1.0
        out = convolve(imp, c)[:, 0]
        np.testing.assert_allclose(out, [1.0, 0.0, -0.5, 0.0, 0.0], atol=1e-15)

    def test_zero_padded_history(self):
        # first entry only sees y_1 since earlier targets are zero
        y = np.array([[2.0], [4.0]])
        out = convolve(y, differencing())
        np.testing.assert_allclose(out, [[2.0], [2.0]], atol=1e-15)

    def test_linear_in_target(self):
        rng = np.random.default_rng(5)
        c = chebyshev_monic(4)
        y1, y2 = rng.standard_normal((2, 30, 2))
        lhs = convolve(2.5 * y1 - y2, c)
        rhs = 2.5 * convolve(y1, c) - convolve(y2, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        c = chebyshev_monic(3)
        y = rng.standard_normal((12, 2))
        out = convolve(y, c)
        for t in range(12):
            ref = sum(
                c.coeffs[j] * y[t - j] for j in range(min(3, t) + 1)
            )
            np.testing.assert_allclose(out[t], ref, atol=1e-12)


class TestReconstruct:
    def test_trivial_degree_zero(self):
        m = np.array([3.0, -1.0])
        np.testing.assert_array_equal(
            reconstruct_prediction(m, np.zeros((0, 2)), cv(1.0)), m
        )

    def test_single_lag(self):
        got = reconstruct_prediction(
            np.array([5.0]), np.array([[2.0]]), differencing()
        )
        np.testing.assert_allclose(got, [7.0], atol=0)

    def test_a_flat_history_is_one_channel(self):
        c, hist = chebyshev_monic(3), np.array([0.4, -1.2, 2.5])
        got, column = (reconstruct_prediction(0.7, h, c) for h in (hist, hist[:, None]))
        assert got.shape == column.shape == (1,)
        np.testing.assert_array_equal(got, column)

    def test_inverts_convolution(self):
        rng = np.random.default_rng(11)
        for c in (differencing(), chebyshev_monic(5), chebyshev_monic(1)):
            y = rng.standard_normal((40, 3))
            z = convolve(y, c)
            n = c.degree
            for t in range(40):
                hist = np.zeros((n, 3))
                for i in range(1, n + 1):
                    if t - i >= 0:
                        hist[i - 1] = y[t - i]
                back = reconstruct_prediction(z[t], hist, c)
                np.testing.assert_allclose(back, y[t], atol=1e-12)

    @given(
        coeffs=st.lists(st.floats(-2.0, 2.0), max_size=6),
        T=st.integers(1, 30),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_any_monic_coefficients(self, coeffs, T, d, seed):
        c = cv(1.0, *coeffs)
        y = np.random.default_rng(seed).standard_normal((T, d))
        z = convolve(y, c)
        for t, hist in enumerate(lagged(y, c.degree, 1)):  # the targets before t, newest first
            back = reconstruct_prediction(z[t], hist, c)
            np.testing.assert_allclose(back, y[t], rtol=0, atol=1e-12)

    def test_short_history_rejected(self):
        with pytest.raises(ValueError, match="history"):
            reconstruct_prediction(np.zeros(1), np.zeros((1, 1)), chebyshev_monic(3))
