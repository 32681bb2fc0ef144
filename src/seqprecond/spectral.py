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

`_gram_panels` evaluates S once on the 2T'+3 differences and the
denominators once on the 2T'-1 sums, then reads them as Toeplitz and
Hankel views, doing the operations of `_gram` in the same order, so every
entry is equal bit for bit to the closed form at a fraction of its cost.
It builds the lower triangle only, as column panels Z[j0:, j0:j0+_BLOCK]
with _BLOCK = 128: T'^2/2 + 64 T' doubles, about half of Z.  `build_gram`
writes the panels, one at a time, into both triangles of a dense matrix.
`build_filter_bank` holds only the panels, applies Z through them, and
needs only the top k eigenpairs.  The matrix is numerically low-rank (at
T'=1994 and beta=0.1, 93 of its 1994 eigenvalues lie above 1e-14 times
the largest), so a block Krylov basis grown from a fixed-seed start holds
them after a few dozen to a couple of hundred vectors; Rayleigh-Ritz on
that basis gives the pairs, with numpy alone.
Nonnegativity of the whole spectrum to -1e-10 is certified without
computing it: Z + 1e-10 I has a Cholesky factor exactly when its smallest
eigenvalue is positive.  The factor overwrites the panels, so the bank
holds half of Z throughout.  A narrower block makes the certificate
cheaper (each panel inverts its diagonal factor and multiplies the rows
below by it), but at 1994 panels of 64 or 96 columns put the factor
1.26e-12 and 1.33e-12 from LAPACK's, where 128 keeps it within 7.4e-13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from seqprecond.poly import ComplexSector

# Beyond this the Gram matrix stops being a desk-scale object: at 8192 the
# bank's panels hold 273 MB, and a dense `build_gram` 537 MB.
MAX_HORIZON = 8192

DEFAULT_FILTER_COUNT = 24

# The eigensolve (see _top_eigenpairs): the least width of the Krylov block,
# the number of steps in which a wider block reaches k vectors, and the
# bounds on each kept pair's residual and angle at which it stops.
_KRYLOV_BLOCK = 8
_KRYLOV_STEPS = 8
_RESIDUAL_TOL = 1e-14
_ANGLE_TOL = 1e-8
_GAP_FLOOR = 1e-10

# Columns per panel of the Gram matrix and of its Cholesky certificate (see
# the module docstring)
_BLOCK = 128


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


def _gram_panels(horizon: int, sector: ComplexSector):
    """The lower triangle of the Gram matrix as column panels
    Z[j0:, j0:j0 + _BLOCK], each built when it is drawn.  A panel's first
    column is horizon - len(panel)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the memory guard {MAX_HORIZON}")
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

    sine, scale = toeplitz(S[2:-2]), hankel(1.0 / (jk + 2) + 1.0 / (jk + 6))
    shift, denom = toeplitz(S_shift), hankel(jk + 4)

    def panel(j0):
        cols = slice(j0, j0 + _BLOCK)
        P = sine[j0:, cols] * scale[j0:, cols]
        P -= shift[j0:, cols] / denom[j0:, cols]
        return P

    return map(panel, range(0, horizon, _BLOCK))


def build_gram(horizon: int, sector: ComplexSector) -> np.ndarray:
    """Dense symmetric Gram matrix of size horizon x horizon."""
    panels = _gram_panels(horizon, sector)
    G = np.empty((horizon, horizon))
    for P in panels:
        j0 = horizon - len(P)
        G[j0:, j0 : j0 + _BLOCK] = P
        G[j0 : j0 + _BLOCK, j0:] = P.T
        del P  # so that the next panel is built without it
    return G


def _gram_product(panels: list, V: np.ndarray) -> np.ndarray:
    """V @ Z for the symmetric Z held as its lower panels."""
    out = np.zeros(V.shape)
    for P in panels:
        j0 = V.shape[1] - len(P)
        j1 = j0 + P.shape[1]
        out[:, j0:j1] += V[:, j0:] @ P
        out[:, j1:] += V[:, j0:j1] @ P[j1 - j0 :].T
    return out


@dataclass(frozen=True)
class FilterBank:
    """Top eigenvectors of the sector Gram matrix, fixed sign, unit norm."""

    eigenvalues: np.ndarray  # the top k eigenvalues, descending
    filters: np.ndarray  # (k, horizon) rows, the matching eigenvectors
    sector: ComplexSector

    @property
    def k(self) -> int:
        return self.filters.shape[0]

    @property
    def horizon(self) -> int:
        return self.filters.shape[1]


def _top_eigenpairs(panels: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric Z held as its lower
    panels, descending, and their eigenvectors as rows.

    Block Krylov with full reorthogonalisation: starting from a fixed-seed
    block of random vectors, each step applies Z to the newest block,
    projects the result off the basis twice and appends it.  The block
    holds _KRYLOV_BLOCK vectors, or k / _KRYLOV_STEPS when that is more:
    every step past k vectors pays an eigensolve of the projected matrix
    for the stopping rule, so for large k the basis grows in a bounded
    number of steps instead of one step per _KRYLOV_BLOCK vectors.
    Rayleigh-Ritz on the basis gives Ritz pairs (theta_i, y_i).  In exact
    arithmetic the residual Z y_i - theta_i y_i is the newest projected
    block weighted by y_i's coordinates in the newest basis block, and its
    norm over the Ritz gap min_j |theta_i - theta_j| bounds the sine of
    the angle between y_i and its eigenvector.  The solve stops once, for
    every kept pair, that residual is at most _RESIDUAL_TOL * theta_0 and
    the angle bound at most _ANGLE_TOL.  Gaps below _GAP_FLOOR * theta_0
    count as that floor: rounding at the scale of theta_0 can turn such
    directions by eps * theta_0 / gap > 2e-6 in any solve.  A basis that
    reaches the size of Z is the dense solve, so it stops there without
    the rule, and every k from 0 to the size takes this one path.
    """
    n = len(panels[0])
    b = min(max(_KRYLOV_BLOCK, -(-k // _KRYLOV_STEPS)), n)
    # one basis vector per row; rows past the basis are never written, so
    # they take no memory
    V, H = np.empty((n, n)), np.zeros((n, n))
    start = np.random.default_rng(0).standard_normal((n, b))
    V[:b] = np.linalg.qr(start)[0].T
    m, new = 0, b
    while True:
        blk = slice(m, m + new)
        ZV = _gram_product(panels, V[blk])
        H[blk, : m + new] = ZV @ V[: m + new].T  # lower triangle of V Z V^T
        m += new
        if m == n:
            break
        W = ZV - H[blk, :m] @ V[:m]
        W -= (W @ V[:m].T) @ V[:m]
        if m > k:
            theta, S = np.linalg.eigh(H[:m, :m], UPLO="L")
            theta, S = theta[::-1], S[:, ::-1]
            est = np.linalg.norm(S[blk, :k].T @ W, axis=1)
            step = np.append(-np.diff(theta), np.inf)
            gap = np.minimum(step[:k], np.append(np.inf, step)[:k])
            bound = np.minimum(
                _ANGLE_TOL * np.maximum(gap, _GAP_FLOOR * theta[0]),
                _RESIDUAL_TOL * theta[0],
            )
            if np.all(est <= bound):
                break
        new = min(b, n - m)
        Q = np.linalg.qr(W[:new].T)[0].T
        Q -= (Q @ V[:m].T) @ V[:m]
        V[m : m + new] = np.linalg.qr(Q.T)[0].T
    # The kept Ritz vectors come from the QR iteration behind np.linalg.eig:
    # eigh's divide and conquer, fine for the stopping rule, turns the
    # eigenvectors of H whose eigenvalues are small against its norm (1 -
    # |cos| up to 4e-11 against the dense solve of Z near 1e-10 * theta_0),
    # and the QR iteration does not.  Rounding can make a close pair of
    # eigenvalues complex conjugates; the real and imaginary parts of such
    # a pair span its real invariant subspace.
    H = H[:m, :m]
    for i in range(m - 1):  # mirror the lower triangle, without a copy of H
        H[i, i + 1 :] = H[i + 1 :, i]
    w, X = np.linalg.eig(H)
    top = np.argsort(-w.real, kind="stable")[:k]
    X = np.linalg.qr(np.where(w[top].imag < 0, X[:, top].imag, X[:, top].real))[0]
    w = np.sum(X * (H @ X), axis=0)  # Rayleigh quotients
    order = np.argsort(-w, kind="stable")
    return w[order], X[:, order].T @ V[:m]


def build_filter_bank(horizon: int, sector: ComplexSector, k: int) -> FilterBank:
    """The top-k eigenvectors of the sector Gram matrix of size horizon.

    Sign convention: the first component of each filter whose magnitude is
    non-negligible is made positive, so the bank is reproducible bit for
    bit on one platform.
    """
    if 1 <= horizon <= MAX_HORIZON and not 0 <= k <= horizon:  # _gram_panels names a bad horizon
        raise ValueError(f"need 0 <= k <= {horizon}, got k={k}")
    panels = list(_gram_panels(horizon, sector))
    # Z is positive semidefinite, so its trace bounds its top eigenvalue
    if sum(np.trace(P) for P in panels) <= horizon * 1e-15:
        raise ValueError(
            "degenerate filter bank: Gram matrix is numerically zero "
            "(zero-measure sector?)"
        )
    w, F = _top_eigenpairs(panels, k)
    for row in F:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    bank = FilterBank(eigenvalues=w, filters=F, sector=sector)
    _validate_bank(panels, bank)
    return bank


def _validate_bank(panels: list, bank: FilterBank) -> None:
    """Check the bank against its Gram matrix Z, held as its lower panels,
    and consume them: the nonnegativity certificate overwrites each panel
    with the same columns of the Cholesky factor of Z + 1e-10 I."""
    F, w = bank.filters, bank.eigenvalues
    if bank.k:
        gram = F @ F.T
        if np.abs(gram - np.eye(bank.k)).max() > 1e-10:
            raise ValueError("filters are not orthonormal to 1e-10")
        resid = _gram_product(panels, F) - w[:, None] * F
        if np.abs(resid).max() > 1e-8 * w[0]:
            raise ValueError("eigenpair residual exceeds 1e-8 * largest eigenvalue")
    try:
        # Z + 1e-10 I is positive definite exactly when every eigenvalue of
        # Z exceeds -1e-10; Cholesky certifies it at a fraction of eigvalsh.
        # Left-looking by panels: take off the product of the factor rows
        # in each panel to the left, factor the diagonal block, and
        # multiply the rows below by that factor's inverse, transposed.
        for J, P in enumerate(panels):
            b = P.shape[1]
            P[:b].flat[:: b + 1] += 1e-10
            for Q in panels[:J]:
                R = Q[-len(P) :]  # the factor's rows j0.. in Q's columns
                P -= R @ R[:b].T
            L = P[:b] = np.linalg.cholesky(P[:b])
            P[b:] = P[b:] @ np.linalg.inv(L).T
        nonnegative = True
    except np.linalg.LinAlgError:
        nonnegative = False
    if np.any(np.diff(w) > 1e-12) or not nonnegative:
        raise ValueError("eigenvalues must be descending and nonnegative to 1e-10")
