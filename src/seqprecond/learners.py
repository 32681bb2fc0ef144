"""Online learners: one projected subgradient recursion over feature blocks.

Preconditioned regression, preconditioned spectral filtering and learned
lag coefficients are one algorithm.  The inputs are exogenous, so every
feature is fixed before learning starts: lagged targets -y_{t-i} against
the lag coefficients c_1..c_n, an input window u_{t-j} against matrices
Q_j and, for spectral filtering, the deep input past filtered by a bank
against matrices M_j.  A block (X, W0, lr0, radius) is the whole
configuration of its weights: `ogd` steps every block along the ℓ1
subgradient at rate lr0/sqrt(t), with sign(0) = 0, and projects the taps
of a block with a radius onto the spectral-norm ball.  Rate 0 holds a
block fixed, so the fixed lag coefficients, the learned ones and a fixed
comparator differ only in their rates.  Leading cell axes on the streams,
weights and rates run many independent recursions, such as the (rate,
run) cells of a grid search, in lockstep: one pass per step over all of
them.  The learner classes only size radii and rates and assemble blocks;
`.run(inputs, outputs)` processes a whole stream (there is no per-sample
`.step`).
"""

from __future__ import annotations

from math import ceil, log, log2, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from seqprecond.dynsys import LinearSystem
from seqprecond.poly import CoefficientVector, sup_on_sector
from seqprecond.spectral import FilterBank

# Upper bound for ||C|| ||B|| kappa used in domain radii when the true
# system is unknown; generous on purpose, the learning rate grid matters
# more than the projection radius in practice.
DEFAULT_DOMAIN_BOUND = 10.0


# ---------------------------------------------------------------------------
# projections


def project_to_ball(M: np.ndarray, radius: float) -> np.ndarray:
    """Project a matrix, or each matrix of a stack (..., m, n), onto the
    spectral-norm ball of the given radius.

    Singular values are clipped by one SVD of the stack or, when m or n
    is 1, by rescaling.  The projection is idempotent and leaves interior
    points untouched.  A matrix with a non-finite entry is left as it is
    and kept out of the SVD.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    M = np.asarray(M, dtype=float)
    if min(M.shape[-2:]) == 1:
        # rank one: the spectral norm is the vector length
        nrm = np.sqrt(np.einsum("...ij,...ij->...", M, M))
        over = nrm > radius
        if not over.any():
            return M
        clipped = M * (radius / np.where(over, nrm, 1.0))[..., None, None]
    else:
        # a non-finite matrix goes into the SVD as 0, so it is not clipped
        finite = np.isfinite(M).all(axis=(-2, -1), keepdims=True)
        U, s, Vt = np.linalg.svd(np.where(finite, M, 0.0), full_matrices=False)
        over = s[..., 0] > radius
        if not over.any():
            return M
        clipped = (U * np.minimum(s, radius)[..., None, :]) @ Vt
    return np.where(over[..., None, None], clipped, M)


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


class NonFinitePrediction(ValueError):
    """A prediction that is not finite, at `step` of the failing cell whose
    index on the cell axes is `cell` (() for a single cell)."""

    def __init__(self, step: int, T: int, cell: tuple = ()):
        super().__init__(f"non-finite prediction at step {step} of {T}")
        self.step = step
        self.cell = cell


def ogd(blocks, targets: np.ndarray):
    """Projected online gradient descent on the ℓ1 loss over feature blocks.

    Each block is (X, W0, lr0, radius): features X of shape
    (..., T, taps, d_in) against weights (..., taps, d_out, d_in), or lag
    features (..., T, taps, d_out) against one scalar weight per tap,
    (..., taps).  Targets have shape (..., T, d_out).  The leading `...`
    are cell axes: every cell is its own recursion.  A block's features
    and weights carry as many cell axes as each other, of size 1 where
    cells share them, and the targets and the rate lr0 broadcast against
    them.  Step t predicts the sum over blocks of sum_j W_j x_{t,j}; then,
    with s = sign(prediction - target), every block moves by
    -lr0/sqrt(t) times its subgradient and the taps of a block with a
    radius are projected onto that spectral-norm ball, all cells at once.

    The update is masked per cell: a zero s or rate leaves that cell's
    weights as they are, and so does a non-finite prediction, so a failed
    cell is out of the update; `project_to_ball` keeps its non-finite
    weights out of the SVD.  The schedule advances on every step.  When no
    block has a nonzero rate the update work is skipped, so rate 0
    evaluates fixed weights.

    Returns the (..., T, d_out) predictions and the final weights; raises
    NonFinitePrediction (a ValueError) naming the first step whose
    prediction is not finite, in the first such cell in C order.
    """
    y = np.asarray(targets, dtype=float)
    T, d_out = y.shape[-2:]
    Xs, W0s, lrs, matrix = [], [], [], []
    for X, W0, lr0, _ in blocks:
        X, W0 = np.asarray(X), np.asarray(W0, dtype=float)
        if X.shape[-3] != T:
            raise ValueError(f"every feature block needs {T} rows, one per target")
        if W0.ndim not in (X.ndim, X.ndim - 2):
            raise ValueError(f"weights {W0.shape} do not fit features {X.shape}")
        Xs.append(X)
        W0s.append(W0)
        lrs.append(np.asarray(lr0, dtype=float))
        matrix.append(W0.ndim == X.ndim)
    lead = [X.ndim - 3 for X in Xs]
    cells = np.broadcast_shapes(
        y.shape[:-2], *(X.shape[:n] for X, n in zip(Xs, lead)),
        *(W.shape[:n] for W, n in zip(W0s, lead)), *(lr.shape for lr in lrs),
    )
    Ws = [np.array(np.broadcast_to(W, cells + W.shape[n:])) for W, n in zip(W0s, lead)]
    steps = []
    for b, lr in enumerate(lrs):
        if lr.any():
            core = (1, 1, 1) if matrix[b] else (1,)
            steps.append((b, lr.reshape(lr.shape + core), lr != 0, core, blocks[b][3]))
    preds = np.empty(cells + (T, d_out))
    for t in range(T):
        xs = [X[..., t, :, :] for X in Xs]
        pred = np.zeros(cells + (d_out,))
        for W, x, m in zip(Ws, xs, matrix):
            if m:
                pred = pred + np.einsum("...joi,...ji->...o", W, x)
            else:
                pred = pred + np.einsum("...j,...jo->...o", W, x)
        preds[..., t, :] = pred
        if not steps:
            continue
        live = np.isfinite(pred).all(axis=-1, keepdims=True)
        s = np.where(live, np.sign(pred - y[..., t, :]), 0.0)
        active = s.any(axis=-1)
        if not active.any():
            continue
        root = sqrt(t + 1)
        for b, lr, nonzero, core, radius in steps:
            W, x = Ws[b], xs[b]
            if matrix[b]:
                grad = s[..., None, :, None] * x[..., :, None, :]
            else:
                grad = np.einsum("...jo,...o->...j", x, s)
            step = W - (lr / root) * grad
            if radius is not None:
                step = project_to_ball(step, radius)
            Ws[b] = np.where((active & nonzero).reshape(cells + core), step, W)

    finite = np.isfinite(preds).all(axis=-1)
    if not finite.all():
        failed = ~finite.all(axis=-1)
        cell = np.unravel_index(np.argmax(failed), failed.shape)
        raise NonFinitePrediction(int(np.argmin(finite[cell])), T, tuple(int(i) for i in cell))
    return preds, Ws


def _rows(a, d: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a.reshape(a.shape[0], d)


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
    with c_0 pinned to 1.  Rate lr0=0 evaluates a fixed comparator init_Q;
    init_Q may carry leading cell axes, one comparator per cell.
    """

    def __init__(
        self,
        c: CoefficientVector,
        d_in: int,
        d_out: int,
        num_taps: int | None = None,
        domain_bound: float = DEFAULT_DOMAIN_BOUND,
        lr0: float | None = None,
        lr_coeffs0: float = 0.0,
        init_Q: np.ndarray | None = None,
    ):
        m = max(c.degree, 1) if num_taps is None else num_taps
        if m < 0:
            raise ValueError("num_taps must be nonnegative")
        self.c = c
        self.d_in = d_in
        self.d_out = d_out
        self.radius = domain_bound * c.l1
        self.lr0 = 2.0 * self.radius / sqrt(d_out) if lr0 is None else lr0
        self.lr_coeffs0 = lr_coeffs0
        self.Q0 = np.zeros((m, d_out, d_in))
        if init_Q is not None:
            init_Q = np.asarray(init_Q, dtype=float)
            if init_Q.shape[-3:] != self.Q0.shape:
                raise ValueError(f"init_Q shape {init_Q.shape} != {self.Q0.shape}")
            self.Q0 = init_Q.copy()

    def blocks(self, u: np.ndarray, y: np.ndarray) -> list:
        """The input window and the lag coefficients, for (..., T, d)
        streams whose leading axes are cell axes of `ogd`."""
        return [
            (lagged(u, self.Q0.shape[-3]), _cells(self.Q0, u, 3), self.lr0, self.radius),
            _lag_block(self.c, y, self.lr_coeffs0),
        ]

    def run(self, inputs, outputs) -> np.ndarray:
        u, y = _rows(inputs, self.d_in), _rows(outputs, self.d_out)
        return ogd(self.blocks(u, y), y)[0]


class SpectralLearner:
    """Preconditioned spectral filtering: the lag coefficients of
    (1 - x^2) p(x), n+1 input taps Q_j and k filter maps M_j of the deep
    past, all stepping at one rate.

    R_Q bounds the truncated-window maps by norm_bound * ||c||_1; R_M
    bounds the filter maps by the sector sup of p times the horizon-
    dependent amplification of the deep past.
    """

    def __init__(
        self,
        c: CoefficientVector,
        bank: FilterBank,
        d_in: int,
        d_out: int,
        total_horizon: int,
        norm_bound: float = 1.0,
        kappa_bound: float = 1.0,
        lr0: float | None = None,
    ):
        n, k, T = c.degree, bank.k, total_horizon
        beta = bank.sector.beta
        self.c = c
        self.bank = bank
        self.d_in = d_in
        self.d_out = d_out
        self.total_horizon = T
        self.R_Q = norm_bound * c.l1
        head = sup_on_sector(c, bank.sector)
        self.R_M = 2.0 * norm_bound * kappa_bound * log(T) * beta ** (4 / 3) * T ** (7 / 6) * head
        if lr0 is None:
            D = n * self.R_Q + k * self.R_M
            G = (n + k) * sqrt(d_out)
            lr0 = D / G if G > 0 else 0.0
        self.lr0 = lr0

    def blocks(self, u: np.ndarray, y: np.ndarray) -> list:
        """Input window, lag coefficients and deep past, for (..., T, d)
        streams whose leading axes are cell axes of `ogd`."""
        n = self.c.degree
        shape = (self.d_out, self.d_in)
        return [
            (lagged(u, n + 1), _cells(np.zeros((n + 1, *shape)), u, 3), self.lr0, self.R_Q),
            _lag_block(tilde_expand(self.c), y, 0.0),
            (
                deep_past(self.bank, u, n, self.total_horizon),
                _cells(np.zeros((self.bank.k, *shape)), u, 3), self.lr0, self.R_M,
            ),
        ]

    def run(self, inputs, outputs) -> np.ndarray:
        u, y = _rows(inputs, self.d_in), _rows(outputs, self.d_out)
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
