"""Online learners: one projected subgradient recursion over feature blocks.

Preconditioned regression, preconditioned spectral filtering and learned
lag coefficients are one algorithm.  The inputs are exogenous, so every
feature is fixed before learning starts: lagged targets -y_{t-i} against
the lag coefficients c_1..c_n, an input window u_{t-j} against matrices
Q_j and, for spectral filtering, the deep input past filtered by a bank
against matrices M_j.  A block (X, W0, lr0, radius) is the whole
configuration of its weights: `ogd` steps every block along the ℓ1
subgradient at rate lr0/sqrt(t), with sign(0) = 0, and projects the taps
of a block with a radius onto the spectral-norm ball (an SVD, only when
a Frobenius norm exceeds the radius).  Rate 0 holds a block fixed, so the
fixed lag coefficients, the learned ones and a fixed comparator differ
only in their rates.  Leading cell axes on the streams, weights, rates and
radii run many independent recursions, such as the (spec, rate, run)
cells of a sweep, in lockstep: one pass per step over all of them, with
streams that many cells read stored once (`Rows`).  A non-finite
prediction is returned as computed, for the caller to judge.  The learner
classes only size radii and rates and assemble blocks, taking d_in and
d_out from the (u, y) streams of `blocks(u, y)`; `.run(inputs, outputs)`
processes a whole stream (there is no per-sample `.step`).
"""

from __future__ import annotations

from math import ceil, log, log2, prod, sqrt
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from seqprecond.dynsys import LinearSystem, _as_time_major
from seqprecond.poly import CoefficientVector, sup_on_sector
from seqprecond.spectral import FilterBank

# Upper bound for ||C|| ||B|| kappa used in domain radii when the true
# system is unknown; generous on purpose, the learning rate grid matters
# more than the projection radius in practice.
DEFAULT_DOMAIN_BOUND = 10.0


# ---------------------------------------------------------------------------
# projections


def project_to_ball(M: np.ndarray, radius) -> np.ndarray:
    """Project a matrix, or each matrix of a stack (..., m, n), onto the
    spectral-norm ball of the given radius.

    The radius is a number or an array that broadcasts over the stack's
    leading axes, one radius per matrix.  The Frobenius norm bounds the
    spectral norm from above and equals it at rank one, so a stack with no
    Frobenius norm over its radius is returned as it is, the input object
    itself.  Otherwise one SVD of the stack clips the singular values.
    The projection is idempotent and leaves interior points untouched.  A
    matrix with a non-finite entry is left as it is and kept out of the SVD.
    """
    radius, M = np.asarray(radius, dtype=float), np.asarray(M, dtype=float)
    norms = np.sqrt(np.einsum("...ij,...ij->...", M, M))
    if norms.size and (norms <= radius).all():
        return M  # every radius is at least a norm, so none is negative
    if radius.min(initial=0.0) < 0:
        raise ValueError("radius must be nonnegative")
    if not (norms > radius).any():
        return M
    # a non-finite matrix goes into the SVD as 0, so it is not clipped
    finite = np.isfinite(M).all(axis=(-2, -1), keepdims=True)
    U, s, Vt = np.linalg.svd(np.where(finite, M, 0.0), full_matrices=False)
    clipped = (U * np.minimum(s, radius[..., None])[..., None, :]) @ Vt
    return np.where((s[..., 0] > radius)[..., None, None], clipped, M)


# ---------------------------------------------------------------------------
# feature blocks


def lagged(x: np.ndarray, taps: int, lag: int = 0) -> np.ndarray:
    """Newest-first windows of a time-major stream, as a read-only view.

    For x of shape (..., T, d), row t holds x_{t-lag}, x_{t-lag-1}, ...,
    x_{t-lag-taps+1}, shape (..., T, taps, d); entries before the start of
    the stream are zero.
    """
    x = np.asarray(x, dtype=float)
    *cells, T, d = x.shape
    if taps == 0:
        return np.zeros((*cells, T, 0, d))
    padded = np.concatenate([np.zeros((*cells, taps - 1 + lag, d)), x], axis=-2)
    windows = sliding_window_view(padded, taps, axis=-2)[..., :T, :, :]  # oldest first
    return windows[..., ::-1].swapaxes(-1, -2)


def deep_past(bank: FilterBank, u: np.ndarray, n: int, T: int) -> np.ndarray:
    """Filter projections of the inputs older than the window u_t..u_{t-n}.

    Row t, filter j holds sum_s filters[j, s] u_{t-n-1-s} / sqrt(T) over
    the inputs that exist (u_s = 0 before the start): the deep past,
    newest first, projected onto each filter.  This is one causal
    convolution of u with each filter.  For u of shape (..., len, d_in)
    the result has shape (..., len, k, d_in).
    """
    u = np.asarray(u, dtype=float)
    depth = u.shape[-2] - n - 1  # history depth at the last step
    if depth > bank.horizon:
        raise ValueError(f"history depth {depth} exceeds bank horizon {bank.horizon}")
    out = np.zeros((*u.shape[:-1], bank.k, u.shape[-1]))
    if depth > 0:
        # direct, not FFT, convolution: row t must read u_0..u_t only, bit for bit
        for cell in np.ndindex(u.shape[:-2]):
            for c in range(u.shape[-1]):
                for j, f in enumerate(bank.filters):
                    out[cell][n + 1 :, j, c] = np.convolve(u[cell][:depth, c], f)[:depth]
        out /= np.sqrt(T)
    return out


# ---------------------------------------------------------------------------
# the recursion


class Rows(NamedTuple):
    """Features that cells share: cell c reads streams[index[c]], so a
    stream is stored once however many cells read it.  `index` carries the
    cell axes, `streams` one leading stream axis."""

    streams: np.ndarray
    index: np.ndarray


def ogd(blocks, targets):
    """Projected online gradient descent on the ℓ1 loss over feature blocks.

    Each block is (X, W0, lr0, radius): features X of shape
    (..., T, taps, d_in) against weights (..., taps, d_out, d_in), or lag
    features (..., T, taps, d_out) against one scalar weight per tap,
    (..., taps).  Targets have shape (..., T, d_out).  The leading `...`
    are cell axes: every cell is its own recursion.  A block's features
    and weights carry as many cell axes as each other, of size 1 where
    cells share them, and the targets, the rate lr0 and the radius
    broadcast against them.  Features given as `Rows` carry their cell
    axes on the index.  Step t predicts the sum over blocks of
    sum_j W_j x_{t,j}; then, with s = sign(prediction - target), every
    block moves by -lr0/sqrt(t) times its subgradient and the taps of a
    block with a radius are projected onto that spectral-norm ball, all
    cells at once.

    The update is masked per cell: a zero s or rate leaves that cell's
    weights as they are, and so does a non-finite prediction, so a failed
    cell is out of the update; `project_to_ball` keeps its non-finite
    weights out of the SVD.  The schedule advances on every step.  When no
    block has a nonzero rate the update work is skipped, so rate 0
    evaluates fixed weights.

    Inside, the cells lie on one trailing lane axis, so every sum over
    taps and channels runs in tap order, one cell per lane, whatever the
    number of cells.  A cell's results therefore do not depend on which
    other cells share the call, and trailing taps with zero features and
    zero weights change nothing, bit for bit.  (One cell runs as two
    identical lanes: with a single lane numpy would fold the taps into
    its inner loop and sum them in another order.)

    Returns the (..., T, d_out) predictions as computed, non-finite rows
    included, and the final weights; a failed cell leaves the others'
    results as they would be without it.
    """

    def split(a, core):
        """(cell shape, own shape, array, index) of features."""
        if isinstance(a, Rows):
            streams = np.asarray(a.streams, dtype=float)
            return np.shape(a.index), streams.shape[1:], streams, np.asarray(a.index)
        a = np.asarray(a, dtype=float)
        return a.shape[: a.ndim - core], a.shape[a.ndim - core :], a, None

    y = np.asarray(targets, dtype=float)
    T, d_out = y.shape[-2:]
    Xs, W0s, lrs, radii, matrix = [], [], [], [], []
    for X, W0, lr0, radius in blocks:
        X, W0 = split(X, 3), np.asarray(W0, dtype=float)
        if X[1][0] != T:
            raise ValueError(f"every feature block needs {T} rows, one per target")
        if W0.ndim - len(X[0]) not in (3, 1):
            raise ValueError(f"weights {W0.shape} do not fit features {X[0] + X[1]}")
        Xs.append(X)
        W0s.append(W0)
        lrs.append(np.asarray(lr0, dtype=float))
        radii.append(None if radius is None else np.asarray(radius, dtype=float))
        matrix.append(W0.ndim - len(X[0]) == 3)
    cells = np.broadcast_shapes(
        y.shape[:-2], *(X[0] for X in Xs), *(W.shape[: len(X[0])] for W, X in zip(W0s, Xs)),
        *(lr.shape for lr in lrs), *(r.shape for r in radii if r is not None),
    )
    n = prod(cells)
    lanes = max(n, 2)

    def lanes_first(a, core):
        """A view of a with its cell axes flattened onto a leading lane axis."""
        shape = a.shape[a.ndim - core :]
        return np.broadcast_to(np.broadcast_to(a, cells + shape).reshape(n, *shape),
                               (lanes, *shape))

    def lanes_last(a, core):
        """A copy of a with its cell axes flattened onto a trailing lane axis."""
        return np.array(np.moveaxis(lanes_first(a, core), 0, -1), order="C")

    def streams(parts):
        """(array, lane index or None) with time first and lanes or streams
        last: step t reads a[t], or a[t] at the index, one column per
        lane.  Streams are read in place, views included."""
        _, own, a, index = parts
        if index is None:
            return lanes_last(a, len(own)), None
        return np.moveaxis(a, 0, -1), lanes_last(index, 0)

    Xs = [streams(X) for X in Xs]  # (T, taps, d, lanes or streams)
    # targets and predictions stay lanes first: step t reads and writes one
    # column per lane, and no sum runs over them
    Y = lanes_first(y, 2)
    Ws = [lanes_last(W, 3 if m else 1) for W, m in zip(W0s, matrix)]
    steps = []
    for b, lr in enumerate(lrs):
        if lr.any():
            lr = lanes_last(lr, 0)
            radius = None if radii[b] is None else lanes_last(radii[b], 0)[:, None]
            steps.append((b, lr, lr != 0, radius))
    preds = np.empty((lanes, T, d_out))
    for t in range(T):
        xs = [X[t] if index is None else X[t].take(index, axis=-1) for X, index in Xs]
        pred = np.zeros((d_out, lanes))
        for W, x, m in zip(Ws, xs, matrix):
            if m:
                pred = pred + np.einsum("joil,jil->ol", W, x)
            else:
                pred = pred + np.einsum("jl,jol->ol", W, x)
        preds[:, t] = pred.T
        if not steps:
            continue
        live = np.isfinite(pred).all(axis=0)
        s = np.where(live, np.sign(pred - Y[:, t].T), 0.0)
        active = s.any(axis=0)
        if not active.any():
            continue
        root = sqrt(t + 1)
        for b, lr, nonzero, radius in steps:
            W, x = Ws[b], xs[b]
            if matrix[b]:
                grad = s[None, :, None, :] * x[:, None, :, :]
            else:
                grad = np.einsum("jol,ol->jl", x, s)
            step = W - (lr / root) * grad
            if radius is not None:
                step = project_to_ball(step.transpose(3, 0, 1, 2), radius).transpose(1, 2, 3, 0)
            np.copyto(W, step, where=active & nonzero)

    def cells_first(a):
        a = np.moveaxis(a[..., :n], -1, 0)
        return np.ascontiguousarray(a.reshape(cells + a.shape[1:]))

    return preds[:n].reshape(cells + (T, d_out)), [cells_first(W) for W in Ws]


def _cells(W, x: np.ndarray, core: int) -> np.ndarray:
    """W with leading size-1 axes for the cell axes of a (..., T, d) stream
    x that it lacks, `core` being the number of its own trailing axes."""
    W = np.asarray(W, dtype=float)
    return W.reshape((1,) * max(0, x.ndim - 2 + core - W.ndim) + W.shape)


def _lag_block(c: CoefficientVector, y: np.ndarray, lr0: float):
    """c_1..c_n against -y_{t-1}..-y_{t-n}; c_0 = 1 is not a weight, so it
    stays pinned, and the block is never projected."""
    return lagged(-y, c.degree, 1), _cells(c.coeffs[1:], y, 1), lr0, None


# ---------------------------------------------------------------------------
# learners


def tilde_expand(c: CoefficientVector) -> CoefficientVector:
    """Coefficients of (1 - x^2) p(x), negated so the result is monic.

    The negation flips the sign of every term on both sides of the
    prediction identity simultaneously, so predictions are unaffected.
    """
    expanded = np.convolve(c.coeffs, [-1.0, 0.0, 1.0])
    return CoefficientVector(-expanded)


class RegressionLearner:
    """Preconditioned regression: lag coefficients c_1..c_n plus learned
    input maps Q_j in the ball of radius domain_bound * ||c||_1.

    The default rate is D/G with D = 2 radius m and G = m sqrt(d_out).
    The lag coefficients step from c at rate lr_coeffs0, by default 0, so
    they stay fixed; a nonzero rate is the learned-coefficient variant,
    with c_0 pinned to 1.  Rate lr0=0 evaluates a fixed comparator init_Q,
    (..., num_taps, d_out, d_in), one per cell on its leading axes.
    """

    def __init__(
        self,
        c: CoefficientVector,
        *,
        num_taps: int | None = None,
        domain_bound: float = DEFAULT_DOMAIN_BOUND,
        lr0: float | None = None,
        lr_coeffs0: float = 0.0,
        init_Q: np.ndarray | None = None,
    ):
        self.num_taps = max(c.degree, 1) if num_taps is None else num_taps
        if self.num_taps < 0:
            raise ValueError("num_taps must be nonnegative")
        self.init_Q = None if init_Q is None else np.array(init_Q, dtype=float)
        if self.init_Q is not None and self.init_Q.shape[-3:-2] != (self.num_taps,):
            raise ValueError(f"init_Q shape {self.init_Q.shape} needs {self.num_taps} taps")
        self.c = c
        self.radius = domain_bound * c.l1
        self.lr0 = lr0
        self.lr_coeffs0 = lr_coeffs0

    def blocks(self, u: np.ndarray, y: np.ndarray) -> list:
        """The input window and the lag coefficients, for (..., T, d)
        streams whose leading axes are cell axes of `ogd`."""
        shape = (self.num_taps, y.shape[-1], u.shape[-1])
        Q0 = np.zeros(shape) if self.init_Q is None else self.init_Q
        if Q0.shape[-3:] != shape:
            raise ValueError(f"init_Q shape {Q0.shape} does not fit the streams' {shape}")
        lr0 = 2.0 * self.radius / sqrt(y.shape[-1]) if self.lr0 is None else self.lr0
        return [
            (lagged(u, self.num_taps), _cells(Q0, u, 3), lr0, self.radius),
            _lag_block(self.c, y, self.lr_coeffs0),
        ]

    def run(self, inputs, outputs) -> np.ndarray:
        u, y = _as_time_major(inputs), _as_time_major(outputs)
        return ogd(self.blocks(u, y), y)[0]


class SpectralLearner:
    """Preconditioned spectral filtering: the lag coefficients of
    (1 - x^2) p(x), n+1 input taps Q_j and k filter maps M_j of the deep
    past, all stepping at one rate.

    R_Q bounds the truncated-window maps by norm_bound * ||c||_1; R_M
    bounds the filter maps by the sector sup of p times the horizon-
    dependent amplification of the deep past.  The default rate is D/G
    with D = n R_Q + k R_M and G = (n + k) sqrt(d_out).
    """

    def __init__(
        self,
        c: CoefficientVector,
        bank: FilterBank,
        *,
        total_horizon: int,
        norm_bound: float = 1.0,
        kappa_bound: float = 1.0,
        lr0: float | None = None,
    ):
        T, beta = total_horizon, bank.sector.beta
        self.c = c
        self.bank = bank
        self.total_horizon = T
        self.R_Q = norm_bound * c.l1
        head = sup_on_sector(c, bank.sector)
        self.R_M = 2.0 * norm_bound * kappa_bound * log(T) * beta ** (4 / 3) * T ** (7 / 6) * head
        self.lr0 = lr0

    def blocks(self, u: np.ndarray, y: np.ndarray) -> list:
        """Input window, lag coefficients and deep past, for (..., T, d)
        streams whose leading axes are cell axes of `ogd`."""
        n, k, shape = self.c.degree, self.bank.k, (y.shape[-1], u.shape[-1])
        G = (n + k) * sqrt(y.shape[-1])
        default = (n * self.R_Q + k * self.R_M) / G if G > 0 else 0.0
        lr0 = default if self.lr0 is None else self.lr0
        return [
            (lagged(u, n + 1), _cells(np.zeros((n + 1, *shape)), u, 3), lr0, self.R_Q),
            _lag_block(tilde_expand(self.c), y, 0.0),
            (deep_past(self.bank, u, n, self.total_horizon),
             _cells(np.zeros((k, *shape)), u, 3), lr0, self.R_M),
        ]

    def run(self, inputs, outputs) -> np.ndarray:
        u, y = _as_time_major(inputs), _as_time_major(outputs)
        return ogd(self.blocks(u, y), y)[0]


# ---------------------------------------------------------------------------
# comparator weights and degree selection


def oracle_weights(sys: LinearSystem, c: CoefficientVector) -> np.ndarray:
    """The fixed input maps a preconditioned regressor should converge to.

    Entry s (s = 0..n-1) is sum_{i=0}^{s} c_i C A^{s-i} B: the convolved
    system's impulse response after preconditioning with c.
    """
    n = c.degree
    out = np.zeros((n, sys.d_out, sys.d_in))
    powers = []
    V = sys.B.copy()
    for _ in range(n):
        powers.append(sys.C @ V)
        V = sys.A @ V
    for s in range(n):
        for i in range(s + 1):
            out[s] += c.coeffs[i] * powers[s - i]
    return out


def select_degree(T: int, d_out: int) -> int:
    """Horizon-driven Chebyshev degree, clamped to [1, 20]."""
    raw = ceil((10.0 / 13.0) * log2((8.0 / (3.0 * sqrt(d_out))) * T**1.5))
    return min(20, max(1, raw))
