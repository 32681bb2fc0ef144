"""Spectral filters for inputs driven through a near-real marginally stable mode.

The Gram matrix integrates the outer product of damped power profiles
mu(a) = (1 - a^2) * (1, a, a^2, ...) over the sector {|a| <= 1,
|arg a| <= beta} of the complex plane with the polar area measure.  Exact
integration gives entry

    G_jk = S(m) (1/(j+k+2) + 1/(j+k+6)) - (S(m+2) + S(m-2)) / (j+k+4)

with m = j - k and S(m) = 2 sin(m beta) / m, S(0) = 2 beta.  Its spectrum
decays fast, so a handful of top eigenvectors span the profiles of every
admissible mode; projections of past inputs onto them are a compact
sufficient statistic for long-memory prediction.

`build_gram` evaluates S once on the 2T'+3 differences and the
denominators once on the 2T'-1 sums, then reads them as Toeplitz and
Hankel views, doing the operations of `_gram` in the same order, so the
matrix is equal bit for bit to the closed form at a fraction of its cost.
`build_filter_bank` needs only the top k eigenpairs and takes them from a
Lanczos solve (ARPACK through `scipy.sparse.linalg.eigsh`, imported there
so that importing the package loads no scipy), or from a dense `eigh` when
k is too close to the horizon for a Lanczos basis to pay.  Nonnegativity
of the whole spectrum to -1e-10 is certified without computing it: Z +
1e-10 I has a Cholesky factor exactly when its smallest eigenvalue is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from seqprecond.poly import ComplexSector

# Beyond this the dense Gram matrix and its eigendecomposition stop being
# a desk-scale object (8192^2 doubles is already half a gigabyte).
MAX_HORIZON = 8192

DEFAULT_FILTER_COUNT = 24


def _pair_sine(m, beta: float):
    """S(m) = 2 sin(m beta) / m with the continuous limit 2 beta at m = 0."""
    m = np.asarray(m, dtype=float)
    safe = np.where(m == 0, 1.0, m)
    return np.where(m == 0, 2.0 * beta, 2.0 * np.sin(m * beta) / safe)


def _gram(j, k, beta: float):
    """The closed-form entries G_jk, broadcast over index arrays j and k."""
    m = j - k
    jk = np.add(j, k, dtype=float)
    G = _pair_sine(m, beta) * (1.0 / (jk + 2) + 1.0 / (jk + 6))
    G -= (_pair_sine(m + 2, beta) + _pair_sine(m - 2, beta)) / (jk + 4)
    return G


def gram_entry(j: int, k: int, sector: ComplexSector) -> float:
    """Closed-form sector Gram entry for row j, column k (both >= 0)."""
    if j < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    return float(_gram(j, k, sector.beta))


def build_gram(horizon: int, sector: ComplexSector) -> np.ndarray:
    """Dense symmetric Gram matrix of size horizon x horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > MAX_HORIZON:
        raise ValueError(
            f"horizon {horizon} exceeds the memory guard {MAX_HORIZON}"
        )
    # S on m = j - k - 2 .. j - k + 2 over every row and column: the
    # differences horizon+1 down to -(horizon+1), descending, so that the
    # windows reversed give Toeplitz rows (row j, column k reads m = j - k)
    S = _pair_sine(np.arange(horizon + 1, -horizon - 2, -1), sector.beta)
    S_shift = S[:-4] + S[4:]  # S(m+2) + S(m-2)
    jk = np.arange(2 * horizon - 1, dtype=float)  # the sums j + k, for Hankel rows

    def toeplitz(x):
        return sliding_window_view(x, horizon)[::-1]

    def hankel(x):
        return sliding_window_view(x, horizon)

    G = toeplitz(S[2:-2]) * hankel(1.0 / (jk + 2) + 1.0 / (jk + 6))
    G -= toeplitz(S_shift) / hankel(jk + 4)
    return G


@dataclass(frozen=True)
class FilterBank:
    """Top eigenvectors of the sector Gram matrix, fixed sign, unit norm."""

    horizon: int
    eigenvalues: np.ndarray  # the top k eigenvalues, descending
    filters: np.ndarray  # (k, horizon) rows, the matching eigenvectors
    sector: ComplexSector

    @property
    def k(self) -> int:
        return self.filters.shape[0]


def _top_eigenpairs(Z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of symmetric Z, descending, and their
    eigenvectors as columns."""
    horizon = Z.shape[0]
    if 0 < k and max(2 * k + 1, 20) < horizon:
        # ARPACK's default Lanczos basis holds max(2k+1, 20) vectors; below
        # the horizon it is cheaper than the dense solve, which takes k = 0
        # and the rest.  A fixed start vector keeps the bank reproducible.
        from scipy.sparse.linalg import eigsh

        w, V = eigsh(Z, k, which="LA", v0=np.ones(horizon), tol=0)
    else:
        w, V = np.linalg.eigh(Z)
        w, V = w[horizon - k :], V[:, horizon - k :]
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def build_filter_bank(horizon: int, sector: ComplexSector, k: int) -> FilterBank:
    """The top-k eigenvectors of the sector Gram matrix of size horizon.

    Sign convention: the first component of each filter whose magnitude is
    non-negligible is made positive, so the bank is reproducible bit for
    bit on one platform.
    """
    if not 0 <= k <= horizon:
        raise ValueError(f"need 0 <= k <= {horizon}, got k={k}")
    Z = build_gram(horizon, sector)
    # Z is positive semidefinite, so its trace bounds its top eigenvalue
    if np.trace(Z) <= horizon * 1e-15:
        raise ValueError(
            "degenerate filter bank: Gram matrix is numerically zero "
            "(zero-measure sector?)"
        )
    w, V = _top_eigenpairs(Z, k)
    F = V.T.copy()
    for row in F:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    bank = FilterBank(horizon=horizon, eigenvalues=w, filters=F, sector=sector)
    _validate_bank(Z, bank)
    return bank


def _validate_bank(Z: np.ndarray, bank: FilterBank) -> None:
    F, w = bank.filters, bank.eigenvalues
    if bank.k:
        gram = F @ F.T
        if np.abs(gram - np.eye(bank.k)).max() > 1e-10:
            raise ValueError("filters are not orthonormal to 1e-10")
        resid = Z @ F.T - F.T * w
        if np.abs(resid).max() > 1e-8 * w[0]:
            raise ValueError("eigenpair residual exceeds 1e-8 * largest eigenvalue")
    shifted = Z.copy()
    shifted.flat[:: bank.horizon + 1] += 1e-10
    try:
        # Z + 1e-10 I is positive definite exactly when every eigenvalue of
        # Z exceeds -1e-10; Cholesky certifies it at a fraction of eigvalsh
        np.linalg.cholesky(shifted)
        nonnegative = True
    except np.linalg.LinAlgError:
        nonnegative = False
    if np.any(np.diff(w) > 1e-12) or not nonnegative:
        raise ValueError("eigenvalues must be descending and nonnegative to 1e-10")
