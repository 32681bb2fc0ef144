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

`_gram_entries` evaluates S once on the 2T'+3 differences and the
denominators once on the 2T'-1 sums, then reads them as Toeplitz and
Hankel views, doing the operations of `_gram` in the same order, so every
entry is equal bit for bit to the closed form at a fraction of its cost.
`_gram_panels` builds through it the lower triangle only, as column panels
Z[j0:, j0:j0+_BLOCK] with _BLOCK = 128: T'^2/2 + 64 T' doubles, about
half of Z.  `build_gram` writes the panels, one at a time, into both
triangles of a dense matrix.  `build_filter_bank` holds the panels,
unmodified, until it returns, applies Z through them, and needs only the
top k eigenpairs.  The matrix is numerically low-rank (at T'=1994 and
beta=0.1, 93 of its 1994 eigenvalues lie above 1e-14 times the largest),
so a block Krylov basis holds them after a few dozen to a couple of
hundred vectors; Rayleigh-Ritz on that basis gives the pairs, with numpy
alone.  Where a pivoted Cholesky factor L of Z, read column by column
from the closed form, spans that range in at least k + 3b and at most
4(k + b) rows (b, the random block's width; see `_krylov_start`), the
basis starts from the top k + b right singular directions of L, and one
product of those k + b rows through the panels, whatever the factor's
width, usually settles the solve; elsewhere it starts from a fixed-seed
random block.
The bank checks what it returns: orthonormal filters, their eigenpair
residuals through the panels, and top-k eigenvalues descending and
nonnegative to -1e-10.

The rest of the spectrum needs no check at run time.  Z is the Gram
matrix of the profiles under a positive measure, so it is positive
semidefinite exactly, and rounding moves it little: at T'=1994 the
computed entries differ from a long-double evaluation of the same closed
form by at most 8.0e-18 at beta=0.1 and 8.1e-17 at beta=1, perturbations
E with ||E||_2 = 3.0e-17 and 9.5e-17.  By Weyl's inequality the smallest
eigenvalue of the computed Z is at least -||E||_2.  Over T' in {1, 2, 3,
10, 100, 700, 1994} and beta in {1e-6, 1e-3, 0.1, 0.5, 1}, the smallest
eigenvalue from `eigvalsh` was never below -1.4e-16 (at T'=1994, beta=1,
within that solver's own rounding of about eps times the largest), six
orders inside -1e-10; tests/test_spectral.py asserts that grid.
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

# Columns per panel of the Gram matrix.  The width fixes the order in which
# _gram_product sums, and so, with the start of the solve (_krylov_start),
# the bank's last bits, which the golden reports and perfbench's references
# pin; they were recorded at 128 from the random start.  The golden reports
# hold at 1e-12 for the banks that now start from the top k + b directions
# of a pivoted Cholesky factor.
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


def _gram_entries(horizon: int, sector: ComplexSector):
    """Z[rows, cols] for any numpy index of the rows and the columns, read
    from the closed form through Toeplitz and Hankel views."""
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

    def entries(rows, cols):
        G = sine[rows, cols] * scale[rows, cols]
        G -= shift[rows, cols] / denom[rows, cols]
        return G

    return entries


def _gram_panels(horizon: int, sector: ComplexSector):
    """The lower triangle of the Gram matrix as column panels
    Z[j0:, j0:j0 + _BLOCK], each built when it is drawn.  A panel's first
    column is horizon - len(panel)."""
    entries = _gram_entries(horizon, sector)
    return (entries(slice(j0, None), slice(j0, j0 + _BLOCK)) for j0 in range(0, horizon, _BLOCK))


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


def _pivoted_cholesky(entries, d: np.ndarray, L: np.ndarray, tol: float) -> tuple[int, float]:
    """Rows L[:c] of a pivoted Cholesky factor of Z, Z ~ L[:c].T @ L[:c]
    (Harbrecht, Peters and Schneider, 2012), with no product of Z.

    Row c is Z's column p, read through `entries`, less what rows 0..c-1
    already hold of it, over its pivot sqrt(d[p]); p is the largest entry
    of d, which holds Z's diagonal on entry and after each row the
    diagonal of Z - L[:c].T @ L[:c].  That difference is positive
    semidefinite, so its trace d.sum() bounds its 2-norm.  The loop stops
    once the trace is at most tol, or when every row of L is written, and
    returns c and the trace.
    """
    c, left = 0, d.sum()
    while left > tol and c < len(L):
        p = np.argmax(d)
        row = entries(slice(None), p)
        row -= L[:c, p] @ L[:c]
        row /= np.sqrt(d[p])
        d -= row * row
        L[c] = row
        c, left = c + 1, d.sum()
    return c, left


def _krylov_start(entries, k: int, V: np.ndarray) -> int:
    """Write the first block of the Krylov basis, orthonormal, into the
    rows of V and return its width.

    With b = _KRYLOV_BLOCK, or k / _KRYLOV_STEPS when that is more, the
    block is taken from a pivoted Cholesky factor L of Z if the factor
    meets its tolerance within 4 (k + b) rows and at k + 3 b rows or more.
    With L^T = Q R and R = U S W^T, it is the top w = k + b right singular
    directions of L, the columns of Q U[:, :w].  L^T L maps their span
    into itself, so the residual that the stopping rule reads after the
    first product, (I - V^T V)(Z - L^T L) y, is the one that all c rows of
    L would leave, and one product of w rows through the panels then
    usually meets the rule, whatever c is.  Else the block is b fixed-seed
    random vectors.  A factor much wider than k costs more to build than
    it saves: at (T', beta, k) = (1994, 1, 24) it takes 693 rows, and the
    bank 530 ms against 225 ms from the random start.  The rule's bounds
    were set when the block held all c rows.  Over T' in {300, 1000,
    1994}, beta in {0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1} and k in {1, 8, 24,
    48, 93}, 31 of 105 banks take the factor, and take 0.65-0.97 of the
    time they took with all c rows (best of 3, one BLAS thread).
    """
    n = len(V)
    b = min(max(_KRYLOV_BLOCK, -(-k // _KRYLOV_STEPS)), n)
    d = entries(*np.diag_indices(n))
    tol = _RESIDUAL_TOL * d.max()
    c, left = _pivoted_cholesky(entries, d, V[: 4 * (k + b)], tol)
    if left <= tol and c >= k + 3 * b:
        Q, R = np.linalg.qr(V[:c].T)
        w = k + b
        V[:w] = (Q @ np.linalg.svd(R)[0][:, :w]).T
        return w
    start = np.random.default_rng(0).standard_normal((n, b))
    V[:b] = np.linalg.qr(start)[0].T
    return b


def _top_eigenpairs(
    panels: list, k: int, V: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric Z held as its lower
    panels, descending, and their eigenvectors as rows.

    Block Krylov with full reorthogonalisation: starting from the
    orthonormal block in the first `width` rows of V (see _krylov_start),
    each step applies Z to the newest block, projects the result off the
    basis twice and appends the whole of it as the next block.  Every
    step past k vectors pays an eigensolve of the projected matrix for
    the stopping rule, so for large k the random start is wider than
    _KRYLOV_BLOCK, and the basis grows in a bounded number of steps
    instead of one step per _KRYLOV_BLOCK vectors.
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
    n = len(V)
    H = np.zeros((n, n))
    m, new = 0, width
    while True:
        blk = slice(m, m + new)
        W = _gram_product(panels, V[blk])
        H[blk, : m + new] = W @ V[: m + new].T  # lower triangle of V Z V^T
        m += new
        if m == n:
            break
        W -= H[blk, :m] @ V[:m]
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
        new = min(len(W), n - m)
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
    if 1 <= horizon <= MAX_HORIZON and not 0 <= k <= horizon:  # _gram_entries names a bad horizon
        raise ValueError(f"need 0 <= k <= {horizon}, got k={k}")
    entries = _gram_entries(horizon, sector)
    # one basis vector per row; rows past the basis are never written, so
    # they take no memory.  The start is built before the panels, into V
    V = np.empty((horizon, horizon))
    width = _krylov_start(entries, k, V)
    panels = list(_gram_panels(horizon, sector))
    # Z is positive semidefinite, so its trace bounds its top eigenvalue
    if sum(np.trace(P) for P in panels) <= horizon * 1e-15:
        raise ValueError(
            "degenerate filter bank: Gram matrix is numerically zero "
            "(zero-measure sector?)"
        )
    w, F = _top_eigenpairs(panels, k, V, width)
    for row in F:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    bank = FilterBank(eigenvalues=w, filters=F, sector=sector)
    _validate_bank(panels, bank)
    return bank


def _validate_bank(panels: list, bank: FilterBank) -> None:
    """Check the bank against its Gram matrix Z, held as its lower panels,
    which it reads and leaves as they are: orthonormal filters, eigenpair
    residuals, and eigenvalues descending and nonnegative to 1e-10.  The
    eigenvalues past the top k are not checked (see the module docstring)."""
    F, w = bank.filters, bank.eigenvalues
    if bank.k:
        gram = F @ F.T
        if np.abs(gram - np.eye(bank.k)).max() > 1e-10:
            raise ValueError("filters are not orthonormal to 1e-10")
        resid = _gram_product(panels, F) - w[:, None] * F
        if np.abs(resid).max() > 1e-8 * w[0]:
            raise ValueError("eigenpair residual exceeds 1e-8 * largest eigenvalue")
    if np.any(np.diff(w) > 1e-12) or np.any(w < -1e-10):
        raise ValueError("eigenvalues must be descending and nonnegative to 1e-10")
