"""Online learners: one projected subgradient recursion over feature blocks.

Preconditioned regression, preconditioned spectral filtering and learned
lag coefficients are one algorithm.  The inputs are exogenous, so every
feature is fixed before learning starts: lagged targets -y_{t-i} against
the lag coefficients c_1..c_n, an input window u_{t-j} against matrices
Q_j and, for spectral filtering, the deep input past filtered by a bank
against matrices M_j.  A block (X, W0, lr0, radius) is the whole
configuration of its weights: `ogd` steps every block along the ℓ1
subgradient at rate lr0/sqrt(t), with sign(0) = 0, and keeps the taps of
a block with a radius in the spectral-norm ball.  Rate 0 holds a block
fixed, so fixed lag coefficients, learned ones and a fixed comparator
differ only in their rates; a fixed block before every moving one is
summed for a chunk of steps at once, outside the per-step loop.  Leading
cell axes run many independent recursions, such as the (spec, rate, run)
cells of a sweep, in lockstep, with streams that many cells read stored
once (`Rows`), gathered onto the cells, and scaled by their rates if
they move, a chunk of steps at a time; a block's products are reduced in
tap order, so a cell's results are the same in any batch.
`feature_blocks` lays out the blocks of one learner, or of cells with
their own taps, lag coefficients, rates and radii; the learner classes
size radii and rates and call it from `blocks(u, y)`, and
`.run(inputs, outputs)` processes a whole stream.
"""

from __future__ import annotations

from math import isfinite, log, prod, sqrt
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

# Steps whose features and targets `ogd` gathers at once.  On 2 shared
# vCPUs the desk call took the same time at 8 to 256; 64 keeps each buffer
# at 64/T of the predictions per tap.
_CHUNK = 64


# ---------------------------------------------------------------------------
# projections


def project_to_ball(M: np.ndarray, radius) -> np.ndarray:
    """Project a matrix, or each matrix of a stack (..., m, n), onto the
    spectral-norm ball of the given radius.

    The radius is a number or an array that broadcasts over the stack's
    leading axes, one radius per matrix.  One SVD of the stack clips the
    singular values.  The projection is idempotent and keeps an interior
    matrix's entries bit for bit, in a new array even when the whole stack
    is interior.  A matrix with a non-finite entry is left as it is and kept
    out of the SVD.
    """
    radius, M = np.asarray(radius, dtype=float), np.asarray(M, dtype=float)
    if radius.min(initial=0.0) < 0:
        raise ValueError("radius must be nonnegative")
    # a non-finite matrix goes into the SVD as 0, so it is not clipped
    finite = np.isfinite(M).all(axis=(-2, -1), keepdims=True)
    U, s, Vt = np.linalg.svd(np.where(finite, M, 0.0), full_matrices=False)
    clipped = (U * np.minimum(s, radius[..., None])[..., None, :]) @ Vt
    return np.where((s.max(axis=-1, initial=0.0) > radius)[..., None, None], clipped, M)


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
    padded = np.concatenate([np.zeros((*cells, max(taps - 1 + lag, 0), d)), x], axis=-2)
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
    """Features or targets that cells share: cell c reads streams[index[c]],
    so a stream is stored once however many cells read it.  `index` carries
    the cell axes, `streams` one leading stream axis.  With `taps`, cell c
    reads the first taps[c] taps of its stream and zeros past them."""

    streams: np.ndarray
    index: np.ndarray
    taps: np.ndarray | None = None


def ogd(blocks, targets):
    """Projected online gradient descent on the ℓ1 loss over feature blocks.

    Each block is (X, W0, lr0, radius): features X of shape
    (..., T, taps, d_in) against weights (..., taps, d_out, d_in), or lag
    features (..., T, taps, d_out) against one scalar weight per tap,
    (..., taps), with no radius.  Targets have shape (..., T, d_out).  The
    leading `...` are cell axes: every cell is its own recursion.  A block's
    features and weights carry as many cell axes as each other, of size 1
    where cells share them, and the targets, the rate lr0 and the radius
    broadcast against them.  Features and targets given as `Rows` carry
    their cell axes on the index.  Step t predicts the sum over blocks of
    sum_j W_j x_{t,j}; then, with s = sign(prediction - target), every
    block moves by -lr0/sqrt(t) times its subgradient and the taps of a
    block with a radius are projected onto that spectral-norm ball.

    A zero s or rate, or a non-finite prediction, leaves a cell's weights
    as they are (a -0 may turn +0), and the schedule advances on every
    step.  Each chunk scales a moving block's features by its rates r; a
    step subtracts s (r x), which is (s r) x bit for bit as s is -1, 0 or
    1, and exactly +-0 where s or r is 0, so it needs no mask.  A chunk
    with a non-finite r x steps as (s r) x, masked per cell.  A block whose
    every rate is 0 never moves; the fixed blocks before the first moving
    one add their terms for a chunk of steps at once, and with every block
    fixed no step runs.  A block is tested against its ball only at steps
    where a bound on its taps' norms may exceed a radius, and projected
    only at steps where an updated cell's tap does.  The bound is the taps'
    largest norm at the step it is armed plus the most each step since can
    add, summed forward from that step, and one that overflows or reads nan
    binds.  It is armed at the initial weights and re-armed from the taps'
    norms after each test that finds every tap inside.

    Inside, the cells lie on one trailing lane axis, at least two lanes
    wide.  Every block's features, and the targets, are gathered onto the
    lanes a chunk of steps at a time, into buffers that the chunk and its
    steps read.  A block's products W_j x_{t,j}, for one step or for a
    chunk's steps at once, are reduced over taps and channels with the
    lanes as numpy's inner loop, so every sum runs tap-major, channel-minor,
    one cell per lane, and the blocks' terms add in block order: a cell's
    results do not depend on which other cells share the call, and
    trailing taps with zero features and zero weights change nothing, bit
    for bit.

    Returns the C-contiguous (..., T, d_out) predictions as computed,
    non-finite rows included, and the final weights.
    """

    def rows(a, core=3):
        """Features, or targets (core 2), as `Rows`: a plain array is one
        stream per cell of its own cell axes.  Streams are read in place,
        views included."""
        if not isinstance(a, Rows):
            a = np.asarray(a, dtype=float)
            shape = a.shape[: a.ndim - core]
            a = Rows(a.reshape(prod(shape), *a.shape[-core:]),
                     np.arange(prod(shape)).reshape(shape))
        streams = np.asarray(a.streams, dtype=float)
        return Rows(streams, np.asarray(a.index), streams.shape[2] if a.taps is None else a.taps)

    y = rows(targets, 2)
    T, d_out = y.streams.shape[1:]
    Xs, W0s, lrs, radii, matrix = [], [], [], [], []
    for X, W0, lr0, radius in blocks:
        X, W0 = rows(X), np.asarray(W0, dtype=float)
        if X.streams.shape[1] != T:
            raise ValueError(f"every feature block needs {T} rows, one per target")
        if W0.ndim - X.index.ndim not in (3, 1):
            raise ValueError(f"weights {W0.shape} do not fit features "
                             f"{X.index.shape + X.streams.shape[1:]}")
        if radius is not None and W0.ndim - X.index.ndim == 1:
            raise ValueError("a lag block takes no radius")
        Xs.append(X)
        W0s.append(W0)
        lrs.append(np.asarray(lr0, dtype=float))
        radii.append(None if radius is None else np.asarray(radius, dtype=float))
        matrix.append(W0.ndim - X.index.ndim == 3)
    cells = np.broadcast_shapes(
        y.index.shape, *(X.index.shape for X in Xs),
        *(W.shape[: X.index.ndim] for W, X in zip(W0s, Xs)),
        *(lr.shape for lr in lrs), *(r.shape for r in radii if r is not None),
    )
    n = prod(cells)
    lanes = max(n, 2)  # with one lane numpy would fold the taps into its inner loop

    def lanes_last(a, core):
        """A copy of a with its cell axes flattened onto a trailing lane axis."""
        shape = a.shape[a.ndim - core :]
        a = np.broadcast_to(np.broadcast_to(a, cells + shape).reshape(n, *shape), (lanes, *shape))
        return np.array(np.moveaxis(a, 0, -1), order="C")

    # the taps each lane reads, and where it reads zeros past them, (taps, 1, lanes), or None
    reads = [lanes_last(np.minimum(X.taps, X.streams.shape[2]), 0) for X in Xs]
    pads = [np.arange(X.streams.shape[2])[:, None, None] >= r
            if (r < X.streams.shape[2]).any() else None for X, r in zip(Xs, reads)]
    # time first and streams last: step t reads X[t] at the lane index
    *Xs, Ys = [(np.moveaxis(a, 0, -1), np.arange(len(a))[lanes_last(index, 0)])
               for a, index, _ in Xs + [y]]
    Ws = [lanes_last(W, 3 if m else 1) for W, m in zip(W0s, matrix)]
    root = np.sqrt(np.arange(1.0, T + 1.0))  # sqrt(t)

    def reach(b, lr):
        """Block b's per-step growth bound, (T, lanes): row s bounds how far a tap's
        norm can move at step s, |lr0/sqrt(s)| sqrt(d_out) max_j |x_{s,j}|, the max
        over the taps that the lane reads.  An overflow reads inf."""
        X, index = Xs[b]
        sq, bound = np.zeros((T, X.shape[-1])), np.zeros((T, lanes))
        for j in range(X.shape[1]):
            np.maximum(sq, np.einsum("tis,tis->ts", X[:, j], X[:, j]), out=sq)
            last = reads[b] == j + 1  # the lanes that read taps 0..j
            bound[:, last] = sq[:, index[last]]
        np.sqrt(bound, out=bound)
        with np.errstate(over="ignore"):
            bound *= np.abs(lr) * sqrt(d_out)
        bound /= root[:, None]
        return bound

    def crossing(W, g, radius, t):
        """The first step s after t at which a tap of W may leave its ball, or T: after
        step s a tap's norm is at most the taps' largest norm now plus g[t+1] + ... +
        g[s], summed forward from t a chunk of steps at a time.  An inf or nan binds."""
        bound = np.sqrt(np.einsum("joil,joil->jl", W, W)).max(axis=0, initial=0.0)
        # Rounding, u = eps/2, p = d_out d_in entries a tap, to first order:
        # the norms now may fall (p/2 + 1)u short of the taps' norm, two
        # roundings an update put a tap's norm at most (1 + u)^(2T) over the
        # exact bound, the SVD's largest singular value, which decides a clip,
        # may read about (p/2 + 1)u over the tap's spectral norm, a computed
        # increment may fall (p + 8)u short, and the running sum of the norms
        # now and at most T increments Tu of itself.  That is (3T + 2p + 10)u
        # of the sum; twice it covers the higher orders and the test's roundings.
        slack = 1 + (6 * T + 4 * W.shape[1] * W.shape[2] + 24) * np.finfo(float).eps / 2
        with np.errstate(over="ignore"):
            for a in range(t + 1, T, _CHUNK):
                sums = g[a : a + _CHUNK].copy()
                sums[0] += bound
                np.add.accumulate(sums, axis=0, out=sums)
                # the sums only grow and carry an inf or nan on, so the last row decides
                if not (slack * sums[-1] <= radius).all():
                    return a + int((~(slack * sums <= radius).all(axis=1)).argmax())
                bound = sums[-1]
        return T

    # 0 + B0 + B1 + ... adds the blocks' terms in block order and its first
    # two terms commute, so a fixed second block may go first.  The fixed
    # blocks before the first moving one add their terms a chunk at a time.
    order, moving = list(range(len(Xs))), [bool(lr.any()) for lr in lrs]
    if len(order) > 1 and moving[0] and not moving[1]:
        order[:2] = 1, 0
    lead = next((k for k, b in enumerate(order) if moving[b]), len(order))
    # every block's chunk of features, and the targets if a block moves:
    # (stream, lane index, pad mask or None, chunk buffer)
    ys, gathers = np.empty((min(T, _CHUNK), d_out, lanes)), []
    # the terms of a chunk (lead) and of a step, (W, x, products, axes) each;
    # the moving blocks' updates and the next step at which each tests its ball
    lead_terms, terms, steps, crosses, scales = [], [], [], [], []
    for k, b in enumerate(order):
        (X, index), W, m, lr = Xs[b], Ws[b], matrix[b], lanes_last(lrs[b], 0)
        # a moving ball's radius per lane (inf at rate 0: such a lane never moves),
        # growth bound and first crossing; one that never binds keeps no bound
        radius, g, cross = None, None, T
        if moving[b] and radii[b] is not None:
            radius, g = np.where(lr != 0, lanes_last(radii[b], 0), np.inf), reach(b, lr)
            cross = crossing(W, g, radius, -1)
            g = g if cross < T else None
        buf = np.empty((len(ys), *X.shape[1:-1], lanes))
        gathers.append((X, index, pads[b], buf))
        x = buf[:, :, None] if m else buf  # x[k]: (taps, 1, d_in, lanes) or (taps, d_out, lanes)
        # W_j x_j for every tap j, of a chunk or of a step, summed over taps and
        # channels in tap order; a chunk's lag products overwrite its features
        Wx, axes = (W, (-4, -2)) if m else (W[:, None], -3)
        shape = np.broadcast_shapes(Wx.shape, x.shape[1:])
        if k < lead:
            lead_terms.append((Wx, x, np.empty((len(ys), *shape)) if m else x, axes))
        else:
            terms.append((Wx, x, np.empty(shape), axes))
        if moving[b]:
            # a chunk's rates, (steps, lanes), and its features times them
            rate, rbuf = np.empty((len(ys), lanes)), np.empty_like(buf)
            scales.append((lr, rate, buf, rbuf))
            steps.append((W, x, rbuf[:, :, None] if m else rbuf, m, rate,
                          None if lr.all() else lr != 0, radius, g, np.empty_like(W)))
            crosses.append(cross)
    if steps:
        gathers.append((*Ys, None, ys))
    P, accs = np.zeros((T, d_out, lanes)), np.empty_like(ys)  # the predictions, chunk sums
    acc, s, coef = np.empty((3, d_out, lanes))  # a block's term, the signs, rate times signs
    (active, mask), flat = np.empty((2, lanes), dtype=bool), s.reshape(-1)
    signs, coefs = s[None, :, None], coef[None, :, None]  # against x[k] of a matrix block
    finite = [True] * len(steps)
    with np.errstate(over="ignore"):  # the test's squared residuals overflow past ~1e154
        for t0 in range(0, T, _CHUNK):
            c = min(_CHUNK, T - t0)
            for X, index, pad, buf in gathers:
                np.take(X[t0 : t0 + c], index, axis=-1, out=buf[:c], mode="clip")
                if pad is not None:
                    np.copyto(buf[:c], 0.0, where=pad)
            for i, (lr, rate, buf, rbuf) in enumerate(scales):
                np.divide(lr, root[t0 : t0 + c, None], out=rate[:c])
                with np.errstate(over="ignore", invalid="ignore"):  # such a chunk is masked
                    rx = np.multiply(buf[:c], rate[:c, None, None], out=rbuf[:c])
                    finite[i] = isfinite(rx.sum())
            chunk = P[t0 : t0 + c]
            for W, x, products, axes in lead_terms:
                chunk += np.add.reduce(np.multiply(W, x[:c], out=products[:c]), axis=axes,
                                       out=accs[:c])
            for k in range(c if steps else 0):
                t, p = t0 + k, chunk[k]
                for W, x, products, axes in terms:
                    p += np.add.reduce(np.multiply(W, x[k], out=products), axis=axes, out=acc)
                np.subtract(p, ys[k], out=s)
                if not isfinite(np.dot(flat, flat)):  # a non-finite prediction, or a huge residual
                    s[:, ~np.isfinite(p).all(axis=0)] = 0.0
                np.sign(s, out=s)
                on = None  # the cells with a nonzero sign, for a masked step
                for i, (W, x, rx, m, rate, nonzero, radius, g, grad) in enumerate(steps):
                    if finite[i]:  # +-0 where s or the rate is 0
                        if m:
                            np.multiply(signs, rx[k], out=grad)
                        else:
                            np.einsum("jol,ol->jl", rx[k], s, out=grad)
                        if t < crosses[i]:
                            W -= grad
                            continue
                    else:  # (s rate) x: 0, not 0 inf = nan, where s is 0
                        np.multiply(s, rate[k], out=coef)
                        if m:
                            np.multiply(coefs, x[k], out=grad)
                        else:
                            np.einsum("jol,ol->jl", x[k], coef, out=grad)
                    if on is None:
                        on = np.logical_or.reduce(s, axis=0, out=active)
                    live = on if nonzero is None else np.logical_and(on, nonzero, out=mask)
                    if t < crosses[i]:
                        np.subtract(W, grad, out=W, where=live)
                        continue
                    step = np.subtract(W, grad, out=grad)
                    norms = np.sqrt(np.einsum("joil,joil->jl", step, step))
                    if ((norms > radius) & live).any():
                        step = project_to_ball(step.transpose(3, 0, 1, 2), radius[:, None])
                        np.copyto(W, step.transpose(1, 2, 3, 0), where=live)
                    else:  # every tap inside: re-arm from the taps' norms now
                        np.copyto(W, step, where=live)
                        crosses[i] = crossing(W, g, radius, t)
    # the growth bounds and chunk buffers, and every name holding one, go before the copies
    gathers = scales = steps = terms = lead_terms = ys = accs = None
    buf = rbuf = x = rx = rate = products = g = None

    def cells_first(a):
        a = np.moveaxis(a[..., :n], -1, 0)
        return np.ascontiguousarray(a.reshape(cells + a.shape[1:]))

    return cells_first(P), [cells_first(W) for W in Ws]


def feature_blocks(u, y, taps, lags, lr, lr_lag, radius, *, index=None, init=None, deep=None):
    """The `ogd` blocks of preconditioned regression and spectral filtering:
    the input window u_t..u_{t-taps+1} against maps Q_j from `init` (or 0)
    at rate lr in the ball of the given radius, the lag coefficients
    c_1..c_n (`lags`) against -y_{t-1}..-y_{t-n} at rate lr_lag, and with
    deep = (bank, m, total_horizon, R_M) the bank's filters of the inputs
    older than u_{t-m} against maps M_j from 0 at rate lr, radius R_M.

    Without an index, the parameters are one learner's and the leading
    axes of the (..., T, d) streams are cell axes.  With an index (cells,),
    cell c reads stream index[c] of u (S, T, d_in) and y (S, T, d_out),
    every parameter holds one entry per cell (init: an array or None), and
    the features are `Rows` at the most taps of any cell.
    """
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    shape = (y.shape[-1], u.shape[-1])
    if index is None:  # one learner: a stream's leading axes are its cells
        k, counts = taps, None
        W_lag = np.reshape(lags, (1,) * (y.ndim - 2) + np.shape(lags))
        Q0 = np.zeros((k, *shape)) if init is None else np.asarray(init, dtype=float)
        if Q0.shape[-3:] != (k, *shape):
            raise ValueError(f"init shape {Q0.shape} does not fit the streams' {(k, *shape)}")
        Q0 = Q0.reshape((1,) * (u.ndim + 1 - Q0.ndim) + Q0.shape)
    else:
        cells, k, counts = len(index), max(taps, default=0), [len(lag) for lag in lags]
        Q0, W_lag = np.zeros((cells, k, *shape)), np.zeros((cells, max(counts, default=0)))
        for cell, (lag, Q) in enumerate(zip(lags, [None] * cells if init is None else init)):
            W_lag[cell, : len(lag)] = lag
            if Q is not None:
                Q0[cell, : len(Q)] = Q

    def rows(X, count=None):
        return X if index is None else Rows(X, index, count)

    blocks = [(rows(lagged(u, k), taps), Q0, lr, radius),
              (rows(lagged(-y, W_lag.shape[-1], 1), counts), W_lag, lr_lag, None)]
    if deep is not None:
        bank, n, horizon, R_M = deep
        blocks.append((rows(deep_past(bank, u, n, horizon)),
                       np.zeros((*Q0.shape[:-3], bank.k, *shape)), lr, R_M))
    return blocks


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
    """Preconditioned regression: lag coefficients c_1..c_n (`lags`) plus
    num_taps learned input maps Q_j in the ball of radius domain_bound * ||c||_1.

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
        self.c, self.lags = c, c.coeffs[1:]
        self.radius = domain_bound * c.l1
        self.lr0 = lr0
        self.lr_coeffs0 = lr_coeffs0

    def blocks(self, u: np.ndarray, y: np.ndarray) -> list:
        """The input window and the lag coefficients, for (..., T, d)
        streams whose leading axes are cell axes of `ogd`."""
        lr0 = 2.0 * self.radius / sqrt(y.shape[-1]) if self.lr0 is None else self.lr0
        return feature_blocks(u, y, self.num_taps, self.lags, lr0, self.lr_coeffs0, self.radius,
                              init=self.init_Q)

    def run(self, inputs, outputs) -> np.ndarray:
        u, y = _as_time_major(inputs), _as_time_major(outputs)
        return ogd(self.blocks(u, y), y)[0]


class SpectralLearner:
    """Preconditioned spectral filtering: the lag coefficients of
    (1 - x^2) p(x) (`lags`), num_taps = n+1 input taps Q_j and k filter
    maps M_j of the deep past, all stepping at one rate.

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
        self.c, self.num_taps, self.lags = c, c.degree + 1, tilde_expand(c).coeffs[1:]
        self.bank = bank
        self.total_horizon = T
        self.R_Q = norm_bound * c.l1
        head = sup_on_sector(c, bank.sector)
        self.R_M = 2.0 * norm_bound * kappa_bound * log(T) * beta ** (4 / 3) * T ** (7 / 6) * head
        self.lr0 = lr0

    def blocks(self, u: np.ndarray, y: np.ndarray) -> list:
        """Input window, lag coefficients and deep past, for (..., T, d)
        streams whose leading axes are cell axes of `ogd`."""
        n, k = self.c.degree, self.bank.k
        G = (n + k) * sqrt(y.shape[-1])
        default = (n * self.R_Q + k * self.R_M) / G if G > 0 else 0.0
        lr0 = default if self.lr0 is None else self.lr0
        return feature_blocks(u, y, self.num_taps, self.lags, lr0, 0.0, self.R_Q,
                              deep=(self.bank, n, self.total_horizon, self.R_M))

    def run(self, inputs, outputs) -> np.ndarray:
        u, y = _as_time_major(inputs), _as_time_major(outputs)
        return ogd(self.blocks(u, y), y)[0]


# ---------------------------------------------------------------------------
# comparator weights


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
