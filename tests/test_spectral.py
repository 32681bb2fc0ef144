"""Sector Gram matrix: closed form vs quadrature, eigendecay, filter bank."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import dblquad

import seqprecond
from seqprecond import invariants, spectral
from seqprecond.poly import ComplexSector
from seqprecond.spectral import (
    _BLOCK,
    _RESIDUAL_TOL,
    MAX_HORIZON,
    FilterBank,
    _gram,
    _gram_entries,
    _gram_panels,
    _gram_product,
    _pivoted_cholesky,
    _validate_bank,
    build_filter_bank,
    build_gram,
    gram_entry,
)


def gram_by_quadrature(j: int, k: int, beta: float) -> float:
    """Oracle: integrate (1-a^2)(1-conj(a)^2) a^j conj(a)^k over the sector
    in polar coordinates; the integrand collapses to a real expression."""

    def f(theta, r):
        damp = 1.0 - 2.0 * r**2 * np.cos(2 * theta) + r**4
        return damp * r ** (j + k + 1) * np.cos((j - k) * theta)

    val, _ = dblquad(f, 0.0, 1.0, -beta, beta, epsabs=1e-12, epsrel=1e-12)
    return val


def panels_of(Z: np.ndarray) -> list:
    """The lower column panels of a dense symmetric Z, as the bank holds them."""
    return [Z[j0:, j0 : j0 + _BLOCK].copy() for j0 in range(0, len(Z), _BLOCK)]


def traced_peak(fn, *args):
    """fn(*args) and the peak of its allocations, which numpy reports to
    tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def diagonal_closed_form(j: int, beta: float) -> float:
    """Independent expression for the diagonal entries."""
    return beta * (1.0 / (j + 1) + 1.0 / (j + 3)) - np.sin(2 * beta) / (j + 2)


class TestGramEntry:
    @pytest.mark.parametrize("beta", [0.01, 0.1, 0.5])
    def test_diagonal_closed_form(self, beta):
        sector = ComplexSector(beta)
        for j in range(0, 257, 8):
            assert gram_entry(j, j, sector) == pytest.approx(
                diagonal_closed_form(j, beta), abs=1e-12
            )

    def test_zero_sector_vanishes(self):
        sector = ComplexSector(0.0)
        for j, k in [(0, 0), (1, 4), (7, 7)]:
            assert gram_entry(j, k, sector) == 0.0

    def test_quadrature_spot(self):
        assert gram_entry(0, 2, ComplexSector(0.1)) == pytest.approx(
            gram_by_quadrature(0, 2, 0.1), abs=1e-9
        )

    @pytest.mark.parametrize("beta", [0.01, 0.1, 0.5])
    def test_quadrature_grid(self, beta):
        # spot-check across the (j, k) <= 32 box
        pts = [(0, 0), (0, 1), (1, 3), (2, 2), (5, 0), (8, 13), (32, 32)]
        sector = ComplexSector(beta)
        for j, k in pts:
            assert gram_entry(j, k, sector) == pytest.approx(
                gram_by_quadrature(j, k, beta), abs=1e-8
            )

    def test_criterion_03_reports_an_off_diagonal_error(self, monkeypatch):
        def off_by_1e6(j, k, sector):
            return gram_entry(j, k, sector) + (1e-6 if j != k else 0.0)

        monkeypatch.setattr(invariants, "gram_entry", off_by_1e6)
        with pytest.raises(AssertionError, match=r"20-point off-diagonal err 1\.00e-06 \(tol"):
            invariants.gram_closed_form()

    def test_symmetric_in_indices(self):
        s = ComplexSector(0.3)
        assert gram_entry(3, 8, s) == gram_entry(8, 3, s)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            gram_entry(-1, 0, ComplexSector(0.1))

    def test_diagonal_strictly_positive(self):
        # 1/(j+1) + 1/(j+3) > 2/(j+2) while sin(2b) <= 2b, so every
        # diagonal entry is positive for b > 0
        s = ComplexSector(0.25)
        for j in range(64):
            assert gram_entry(j, j, s) > 0


class TestBuildGram:
    def test_single_entry(self):
        s = ComplexSector(0.1)
        Z = build_gram(1, s)
        assert Z.shape == (1, 1)
        assert Z[0, 0] == gram_entry(0, 0, s)

    def test_matches_entries(self):
        s = ComplexSector(0.2)
        Z = build_gram(6, s)
        for j in range(6):
            for k in range(6):
                assert Z[j, k] == pytest.approx(gram_entry(j, k, s), abs=1e-15)

    # the row blocks of build_gram's in-place subtraction end at multiples
    # of _BLOCK
    @given(st.integers(1, 300), st.floats(0.0, 1.0, exclude_min=True))
    @example(1, 0.1)
    @example(_BLOCK - 1, 0.1)
    @example(_BLOCK, 0.1)
    @example(_BLOCK + 1, 0.1)
    @example(2 * _BLOCK + 1, 0.1)
    def test_equals_the_closed_form_bit_for_bit(self, horizon, beta):
        idx = np.arange(horizon)
        np.testing.assert_array_equal(
            build_gram(horizon, ComplexSector(beta)),
            _gram(idx[:, None], idx[None, :], beta),
        )

    def test_equals_the_closed_form_bit_for_bit_at_1994(self):
        idx = np.arange(1994)
        np.testing.assert_array_equal(
            build_gram(1994, ComplexSector(0.1)), _gram(idx[:, None], idx[None, :], 0.1)
        )

    @pytest.mark.parametrize("horizon", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 1994])
    def test_panels_are_the_lower_block_triangle_bit_for_bit(self, horizon):
        Z = build_gram(horizon, ComplexSector(0.1))
        panels = list(_gram_panels(horizon, ComplexSector(0.1)))
        starts = range(0, horizon, _BLOCK)
        assert len(panels) == len(starts)
        for j0, P in zip(starts, panels):
            np.testing.assert_array_equal(P, Z[j0:, j0 : j0 + _BLOCK])

    @given(st.integers(1, 300), st.integers(1, 40), st.floats(0.0, 1.0, exclude_min=True),
           st.integers(0, 2**32 - 1))
    @example(_BLOCK, 1, 0.1, 0)
    @example(_BLOCK + 1, 40, 0.1, 0)
    def test_panel_product_matches_the_dense_product(self, horizon, rows, beta, seed):
        V = np.random.default_rng(seed).standard_normal((rows, horizon))
        dense = V @ build_gram(horizon, ComplexSector(beta))
        got = _gram_product(list(_gram_panels(horizon, ComplexSector(beta))), V)
        assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_exactly_symmetric(self):
        Z = build_gram(128, ComplexSector(0.07))
        assert np.abs(Z - Z.T).max() == 0.0

    # The bank checks only the top k eigenvalues; these pin the rest (see
    # the spectral module docstring).  The least measured was -5.0e-17
    @pytest.mark.parametrize("horizon", [1, 2, 3, 10, 64, 100, 256, 700])
    def test_positive_semidefinite(self, horizon):
        for beta in (1e-6, 1e-3, 0.1, 0.5, 1.0):
            Z = build_gram(horizon, ComplexSector(beta))
            assert np.linalg.eigvalsh(Z).min() >= -1e-10

    # the least eigenvalues read -1.3e-17 and -1.4e-16
    @pytest.mark.parametrize("beta", [0.1, 1.0])
    def test_positive_semidefinite_at_1994(self, dense_solve, beta):
        assert dense_solve(1994, beta)[0].min() >= -1e-10

    @pytest.mark.parametrize("horizon,beta", [(64, 0.01), (64, 0.1), (256, 0.1)])
    def test_trace_bound(self, horizon, beta):
        Z = build_gram(horizon, ComplexSector(beta))
        assert np.trace(Z) <= 6 * beta * np.log(horizon)

    def test_memory_guard(self):
        with pytest.raises(ValueError, match="memory guard"):
            build_gram(MAX_HORIZON + 1, ComplexSector(0.1))

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            build_gram(0, ComplexSector(0.1))


class TestFilterBank:
    def test_sign_convention(self):
        # the leading non-negligible component of each filter is positive
        bank = build_filter_bank(64, ComplexSector(0.1), 8)
        for row in bank.filters:
            nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
            assert row[nz[0]] > 0

    def test_real_bank_properties(self):
        bank = build_filter_bank(128, ComplexSector(0.1), 8)
        assert bank.k == 8
        assert bank.horizon == 128
        assert np.all(np.diff(bank.eigenvalues) <= 1e-12)
        assert bank.eigenvalues.min() >= -1e-10
        G = bank.filters @ bank.filters.T
        assert np.abs(G - np.eye(8)).max() < 1e-10

    def test_eigenpair_residual(self):
        Z = build_gram(96, ComplexSector(0.2))
        bank = build_filter_bank(96, ComplexSector(0.2), 6)
        for j in range(6):
            r = Z @ bank.filters[j] - bank.eigenvalues[j] * bank.filters[j]
            assert np.linalg.norm(r) <= 1e-8 * bank.eigenvalues[0]

    def test_eigendecay_count(self):
        beta = 0.1
        sigma = np.linalg.eigvalsh(build_gram(256, ComplexSector(beta)))
        assert int((sigma > beta).sum()) <= 6 * np.log(256)

    def test_deterministic(self):
        a = build_filter_bank(64, ComplexSector(0.1), 5)
        b = build_filter_bank(64, ComplexSector(0.1), 5)
        np.testing.assert_array_equal(a.filters, b.filters)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    def test_degenerate_zero_sector_flagged(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_filter_bank(16, ComplexSector(0.0), 2)

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="k=5"):
            build_filter_bank(4, ComplexSector(0.1), 5)
        with pytest.raises(ValueError, match="k=-1"):
            build_filter_bank(4, ComplexSector(0.1), -1)


class TestKrylovStart:
    @pytest.mark.parametrize("horizon", [40, 300])
    @pytest.mark.parametrize("beta", [0.1, 1.0])
    def test_pivoted_cholesky(self, horizon, beta):
        # every entry the factor reads is build_gram's, bit for bit, and
        # Z - L^T L, positive semidefinite in exact arithmetic, has a
        # 2-norm within its trace at the stop plus rounding
        Z = build_gram(horizon, ComplexSector(beta))
        entries, columns = _gram_entries(horizon, ComplexSector(beta)), []

        def recording(rows, cols):
            G = entries(rows, cols)
            columns.append((cols, G.copy()))
            return G

        d = entries(*np.diag_indices(horizon))
        np.testing.assert_array_equal(d, np.diag(Z))
        tol = _RESIDUAL_TOL * d.max()
        L = np.empty((horizon, horizon))
        c, left = _pivoted_cholesky(recording, d, L, tol)
        assert left <= tol and len(columns) == c
        assert len({int(p) for p, _ in columns}) == c
        for p, column in columns:
            np.testing.assert_array_equal(column, Z[:, p])
        err = np.linalg.norm(Z - L[:c].T @ L[:c], 2)
        assert err <= left + horizon * np.finfo(float).eps * np.diag(Z).max()

    # The products through the panels that each start pays, the validation
    # pass included.  The pivoted Cholesky start is taken at (1994, 0.1,
    # 24) and at (296, 0.1, 8), the spectral golden's bank.  The random
    # start stays where the factor needs more than 4 (k + b) rows (693 at
    # (1994, 1.0); 96 at (1994, 0.1) against 36 at k = 1), and where it
    # needs fewer than k + 3 b (96 against 129 at k = 93)
    @pytest.mark.parametrize("horizon,beta,k,products", [
        (1994, 0.1, 24, 2),
        (296, 0.1, 8, 2),
        (1994, 1.0, 24, 23),
        (1994, 0.1, 1, 7),
        (1994, 0.1, 93, 12),
    ])
    def test_products_through_the_panels(self, monkeypatch, horizon, beta, k, products):
        calls, product = [], spectral._gram_product

        def counting(panels, V):
            calls.append(len(V))
            return product(panels, V)

        monkeypatch.setattr(spectral, "_gram_product", counting)
        build_filter_bank(horizon, ComplexSector(beta), k)
        assert len(calls) == products


DENSE_CASES = [
    *[(40, 0.1, k) for k in (0, 1, 39, 40)],
    # (300, 0.01): the 16th eigenvalue, 4.1e-10 * the largest, lies 3.3e-10
    # * the largest from its neighbour.  A solve that stops on the residual
    # alone (<= 1e-14 * the largest) leaves 1 - |cos| = 2.4e-12 at (300,
    # 0.02, 24) and 6.6e-10 at (300, 0.03, 24); the bound on the angle does not
    *[(300, beta, k) for beta in (0.01, 0.1, 0.5, 1.0) for k in (1, 8, 24)],
    (300, 0.03, 24),
    # the 23rd eigenvalue, 3.6e-10 * the largest: its Ritz vector from the
    # divide-and-conquer eigh of the projected matrix is off by 1e-11
    (400, 0.05, 24),
    # k > _KRYLOV_BLOCK * _KRYLOV_STEPS widens the block; at k = horizon
    # the basis fills before any stopping-rule check.  300 and _BLOCK + 1
    # end in a partial panel, the latter in one of a single column
    (300, 0.1, 0),
    (300, 0.1, 100),
    (300, 0.1, 300),
    (_BLOCK + 1, 0.1, 0),
    (_BLOCK + 1, 0.1, _BLOCK + 1),
    (1994, 0.1, 24),
    (1994, 1.0, 24),
    # the benchmark's T' and beta on each side of _krylov_start's rule: the
    # pivoted Cholesky start at k = 48, the random start at k = 93
    (1994, 0.1, 48),
    (1994, 0.1, 93),
]


@pytest.fixture(scope="module")
def dense_solve():
    """Oracle: the full dense eigendecomposition per (horizon, beta), once
    for the module: the whole spectrum descending, the top eigenvectors as
    rows, and the Gram matrix."""
    solved = {}
    k_max = max(k for _, _, k in DENSE_CASES)

    def solve(horizon, beta):
        if (horizon, beta) not in solved:
            Z = build_gram(horizon, ComplexSector(beta))
            w, V = np.linalg.eigh(Z)
            solved[horizon, beta] = w[::-1], V[:, ::-1][:, :k_max].T.copy(), Z
        return solved[horizon, beta]

    return solve


class TestAgainstDenseEigh:
    """Filters whose eigenvalue is above 1e-10 * the largest match the dense
    solve; below that floor the eigenvectors are arbitrary (at horizon 40,
    k=38 dense solves differ by |cos| ~ 0), so only their eigenpair
    residual and orthonormality are checked."""

    @pytest.mark.parametrize("horizon,beta,k", DENSE_CASES)
    def test_matches_the_dense_bank(self, dense_solve, horizon, beta, k):
        bank = build_filter_bank(horizon, ComplexSector(beta), k)
        spectrum, F_top, Z = dense_solve(horizon, beta)
        w_ref, F_ref = spectrum[:k], F_top[:k]
        assert bank.filters.shape == (k, horizon) and bank.eigenvalues.shape == (k,)
        top = spectrum[0]
        above = w_ref > 1e-10 * top
        cos = np.abs(np.sum(bank.filters * F_ref, axis=1))
        assert np.all(1.0 - cos[above] <= 1e-12)
        assert np.all(np.abs(bank.eigenvalues - w_ref)[above] <= 1e-12 * top)
        resid = Z @ bank.filters.T - bank.filters.T * bank.eigenvalues
        assert np.abs(resid).max(initial=0.0) <= 1e-12 * top
        orth = bank.filters @ bank.filters.T - np.eye(k)
        assert np.abs(orth).max(initial=0.0) <= 1e-12


class TestValidateBank:
    @pytest.fixture
    def valid(self):
        # build_filter_bank has validated it
        bank = build_filter_bank(40, ComplexSector(0.1), 4)
        return build_gram(40, ComplexSector(0.1)), bank

    def test_rejects_non_orthonormal_filters(self, valid):
        Z, bank = valid
        with pytest.raises(ValueError, match="orthonormal"):
            _validate_bank(panels_of(Z), dataclasses.replace(bank, filters=bank.filters * (1 + 1e-6)))

    def test_rejects_a_bad_residual(self, valid):
        # swapped filters stay orthonormal but no longer match their eigenvalues
        Z, bank = valid
        swapped = bank.filters[[1, 0, 2, 3]]
        with pytest.raises(ValueError, match="residual"):
            _validate_bank(panels_of(Z), dataclasses.replace(bank, filters=swapped))

    @staticmethod
    def with_a_negative_eigenvalue(horizon):
        """Panels of the Gram matrix with its least eigenvalue moved to -1e-8,
        and the whole bank of that matrix, which holds it last."""
        Z = build_gram(horizon, ComplexSector(0.1))
        w, V = np.linalg.eigh(Z)
        Z_bad = Z - (w[0] + 1e-8) * np.outer(V[:, 0], V[:, 0])
        w, V = np.linalg.eigh(Z_bad)
        assert w[0] == pytest.approx(-1e-8, rel=1e-6)
        return panels_of(Z_bad), FilterBank(w[::-1], V[:, ::-1].T.copy(), ComplexSector(0.1))

    def test_rejects_a_negative_eigenvalue(self):
        panels, bank = self.with_a_negative_eigenvalue(40)
        with pytest.raises(ValueError, match="nonnegative to 1e-10"):
            _validate_bank(panels, bank)

    def test_rejects_a_negative_eigenvalue_beyond_one_block(self):
        # three panels, the last one partial, so that the residual passes
        # through all of them before the eigenvalues are read
        horizon = 2 * _BLOCK + _BLOCK // 3
        panels, bank = self.with_a_negative_eigenvalue(horizon)
        assert len(panels) == 3
        with pytest.raises(ValueError, match="nonnegative to 1e-10"):
            _validate_bank(panels, bank)

    def test_rejects_ascending_eigenvalues(self, valid):
        # reversed pairs stay orthonormal and match their eigenvalues
        Z, bank = valid
        ascending = FilterBank(bank.eigenvalues[::-1], bank.filters[::-1], bank.sector)
        with pytest.raises(ValueError, match="descending and nonnegative to 1e-10"):
            _validate_bank(panels_of(Z), ascending)

    def test_reads_the_panels_and_leaves_them_as_they_are(self, valid):
        Z, bank = valid
        panels = panels_of(Z)
        _validate_bank(panels, bank)
        for P, Q in zip(panels, panels_of(Z)):
            np.testing.assert_array_equal(P, Q)


Z_BYTES = 8 * 1994**2  # the dense Gram matrix at the spectral run's horizon


class TestMemory:
    def test_the_panels_hold_the_lower_triangle(self):
        # n^2 / 2 + 64 n doubles (0.53 of Z), and one panel's temporary
        _, peak = traced_peak(lambda: list(_gram_panels(1994, ComplexSector(0.1))))
        assert peak <= 0.6 * Z_BYTES

    def test_validation_allocates_a_tenth_of_the_matrix(self, dense_solve):
        # the residual product, k x T' doubles at a time, is all it allocates
        spectrum, F, Z = dense_solve(1994, 0.1)
        bank = FilterBank(spectrum[:24], F[:24], ComplexSector(0.1))
        panels = panels_of(Z)
        _, peak = traced_peak(_validate_bank, panels, bank)
        assert peak <= 0.1 * Z_BYTES

    def test_the_dense_matrix_is_built_one_panel_at_a_time(self):
        _, peak = traced_peak(build_gram, 1994, ComplexSector(0.1))
        assert peak <= 1.25 * Z_BYTES

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_the_bank_grows_the_resident_set_by_less_than_the_dense_matrix(self):
        # tracemalloc would count _top_eigenpairs' n x n basis and projected
        # matrix at full size, though their rows never written take no
        # memory; the resident set counts only the pages touched.  Its high
        # mark is read as VmHWM: a child's ru_maxrss starts at the mark of
        # the process that forked it, here the whole test session's.  One
        # product first, so that BLAS has allocated its buffers.
        code = ("import re, numpy as np\n"
                "from seqprecond.poly import ComplexSector\n"
                "from seqprecond.spectral import build_filter_bank\n"
                "def high_mark():\n"
                "    with open('/proc/self/status') as f:\n"
                "        return int(re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1))\n"
                "a = np.ones((256, 256)); a @ a\n"
                "before = high_mark()\n"
                "build_filter_bank(1994, ComplexSector(0.1), 24)\n"
                "print(high_mark() - before)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(seqprecond.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert 1024 * int(out.stdout) <= 1.0 * Z_BYTES
