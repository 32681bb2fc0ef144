"""Synthetic linear and two-layer tanh systems, and the trajectory CSV format.

A linear system evolves as x_t = A x_{t-1} + B u_t, y_t = C x_t + noise
with x_0 = 0, so y_1 already carries the instantaneous C B u_1 term.
Transition matrices are built from a sampled eigenvalue multiset: complex
values in conjugate pairs become 2x2 rotation-scaling blocks, the block
diagonal is conjugated by a random well-conditioned basis Q diag(scale),
Q orthogonal, and its condition number max(scale) / min(scale) is
recorded as kappa.  A two-layer system x_t = A2 tanh(A1 x_{t-1} + B1 u_t)
+ B2 u_t checks each layer's matrices as a linear system checks its own.

Runs are simulated together: `simulate_lds_runs` and
`simulate_nonlinear_runs` stack R systems of one d_h over one horizon,
whatever their input and output widths, and step their states x of shape
(R, d_h, 1) through one recursion, x = A x + B u_t with A of shape
(R, d_h, d_h), 64 steps at a time: the products with u_t are one batched
matmul per width class (d_in, d_out) before the steps and the readout one
per class after them, so a step does one matmul (two for the nonlinear
systems) for all runs, and only a chunk's states are held.  Each run's
trajectory is bit for bit the one it gets alone, and its noise comes from
its own seed, added after the loop.  `simulate_lds` is the single-run case.

A system's conjugate pairs are drawn in batches: `Generator.uniform(a, b)`
is a + (b - a) * `random()`, so one `random(2m)` call scaled the same way
gives the next m attempts of a scalar rejection loop.  The points are the
loop's, and the generator is left where the loop leaves it.

A trajectory's CSV is one header, `_header`'s for writer and reader alike,
and a row per step from t = 1 at full precision: it reads back bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

_EIG_TOL = 1e-9
_MAX_REJECT = 100_000  # attempts per conjugate pair
_MAX_BATCH = 1 << 13  # attempts drawn at once, 128 KiB of doubles
_CHUNK = 64  # steps whose input products a simulation takes at once


@dataclass(frozen=True)
class LinearSystem:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    eigenvalues: np.ndarray  # sampled multiset, conjugate-closed
    kappa: float  # condition number of the eigenbasis actually used
    noise_sigma: float = 0.0

    def __post_init__(self):
        A, B, C = _check_layer(self.A, self.B, self.C, ("A", "B", "C"), self.noise_sigma)
        d = A.shape[0]
        eigs = np.asarray(self.eigenvalues, dtype=complex)
        if eigs.shape != (d,):
            raise ValueError(f"expected {d} eigenvalues, got shape {eigs.shape}")
        if not np.all(np.isfinite(eigs)):
            raise ValueError("eigenvalues contain non-finite entries")
        if np.abs(eigs).max() > 1.0 + _EIG_TOL:
            raise ValueError(
                f"marginal stability ceiling violated: max |eig| = {np.abs(eigs).max()}"
            )
        _require_conjugate_closed(eigs)
        if self.kappa < 1.0 - 1e-9:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        for name, M in (("A", A), ("B", B), ("C", C), ("eigenvalues", eigs)):
            object.__setattr__(self, name, M)

    @property
    def d_hidden(self) -> int:
        return self.A.shape[0]

    @property
    def d_in(self) -> int:
        return self.B.shape[1]

    @property
    def d_out(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class NonlinearSystem:
    """Two recurrent layers with a tanh between them.

    x_t = A2 tanh(A1 x_{t-1} + B1 u_t) + B2 u_t, y_t = C x_t + noise.
    Each layer's matrices pass the checks of a `LinearSystem`'s, and the
    layers share d_h and d_in.
    """

    A1: np.ndarray
    B1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        A1, B1, C = _check_layer(self.A1, self.B1, self.C, ("A1", "B1", "C"), self.noise_sigma)
        if np.shape(self.A2) != A1.shape:
            raise ValueError(f"A2 must be {A1.shape} like A1, got {np.shape(self.A2)}")
        A2, B2, _ = _check_layer(self.A2, self.B2, C, ("A2", "B2", "C"))
        if B2.shape != B1.shape:
            raise ValueError(f"B2 must be {B1.shape} like B1, got {B2.shape}")
        for name, M in (("A1", A1), ("B1", B1), ("A2", A2), ("B2", B2), ("C", C)):
            object.__setattr__(self, name, M)

    @property
    def d_hidden(self) -> int:
        return self.A1.shape[0]

    @property
    def d_in(self) -> int:
        return self.B1.shape[1]

    @property
    def d_out(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Trajectory:
    inputs: np.ndarray  # (T, d_in)
    outputs: np.ndarray  # (T, d_out)

    def __post_init__(self):
        u = _as_time_major(self.inputs)
        y = _as_time_major(self.outputs)
        if u.shape[0] != y.shape[0]:
            raise ValueError(
                f"inputs and outputs disagree on length: {u.shape[0]} vs {y.shape[0]}"
            )
        object.__setattr__(self, "inputs", u)
        object.__setattr__(self, "outputs", y)

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


def _header(d_in: int, d_out: int) -> list[str]:
    """The columns of a trajectory CSV: t,u_0..u_{d_in-1},y_0..y_{d_out-1}."""
    return ["t"] + [f"u_{i}" for i in range(d_in)] + [f"y_{i}" for i in range(d_out)]


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """One row per step t = 1..T under `_header`; full float precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_header(traj.inputs.shape[1], traj.outputs.shape[1]))
        for t, (u_t, y_t) in enumerate(zip(traj.inputs, traj.outputs), start=1):
            w.writerow([t] + [repr(float(v)) for v in (*u_t, *y_t)])


def ingest_csv(path: str) -> Trajectory:
    """Parse a trajectory CSV, validating schema, continuity, and finiteness:
    the header must be `_header(d_in, d_out)`, with d_in its `u_` columns."""
    with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
        reader = csv.reader(fh)
        if (header := next(reader, None)) is None:
            raise ValueError("empty CSV")
        header = [h.strip() for h in header]
        if header[:1] != ["t"]:
            raise ValueError("malformed header: first column must be 't'")
        n_u = sum(h.startswith("u_") for h in header)
        d_in, d_out = max(n_u, 1), max(len(header) - 1 - n_u, 1)
        for want, got in itertools.zip_longest(_header(d_in, d_out), header,
                                               fillvalue="(end of header)"):  # header never longer
            if got != want:
                raise ValueError(f"malformed header: expected column {want!r}, found {got!r}")
        us, ys, expected_t = [], [], None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1 + d_in + d_out:
                raise ValueError(f"row {lineno}: expected {1 + d_in + d_out} cells")
            try:
                t = int(row[0])
            except ValueError:
                raise ValueError(f"row {lineno}: non-integer t {row[0]!r}") from None
            if expected_t is not None and t != expected_t:
                raise ValueError(f"row {lineno}: non-contiguous t (expected {expected_t}, got {t})")
            expected_t = t + 1
            vals = []
            for j, cell in enumerate(row[1:], start=1):
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(f"row {lineno}, column {header[j]}: "
                                     f"not a number {cell!r}") from None
                if not math.isfinite(v):
                    raise ValueError(f"row {lineno}, column {header[j]}: non-finite value")
                vals.append(v)
            us.append(vals[:d_in])
            ys.append(vals[d_in:])
    if not us:
        raise ValueError("CSV contains no data rows")
    return Trajectory(np.array(us), np.array(ys))


def _check_layer(A, B, C, names: tuple[str, str, str], noise_sigma=0.0):
    """One layer's transition, input and readout matrices as float arrays:
    A square, B with A's d rows and C with d columns, every entry finite,
    and the readout's noise scale nonnegative and finite.  An error names
    the matrix by its field name in `names`."""
    if not 0 <= noise_sigma < np.inf:  # a NaN would switch the noise off
        raise ValueError(f"noise_sigma must be nonnegative and finite, got {noise_sigma}")
    A, B, C = (np.asarray(M, dtype=float) for M in (A, B, C))
    a, b, c = names
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{a} must be square, got {A.shape}")
    d = A.shape[0]
    if B.ndim != 2 or B.shape[0] != d:
        raise ValueError(f"{b} must be ({d}, d_in), got {B.shape}")
    if C.ndim != 2 or C.shape[1] != d:
        raise ValueError(f"{c} must be (d_out, {d}), got {C.shape}")
    for name, M in zip(names, (A, B, C)):
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{name} contains non-finite entries")
    return A, B, C


def _require_conjugate_closed(eigs: np.ndarray) -> None:
    """A real matrix forces the spectrum to pair each z with conj(z).

    Greedy, last entry first: each unpaired z takes the first-nearest
    conj(z) among the unpaired entries before it, and fails when that is
    farther than _EIG_TOL (1 + |z|).  Gaps are hypot(re, im) as abs() of a
    complex scalar computes them, so finite entries pair exactly as a
    one-at-a-time search pairs them.
    """
    pending = eigs[np.abs(eigs.imag) > _EIG_TOL]
    re, im = pending.real, pending.imag
    bound = _EIG_TOL * (1 + np.hypot(re, im))
    paired = np.zeros(len(pending), dtype=bool)
    for i in range(len(pending) - 1, -1, -1):
        if paired[i]:
            continue
        gaps = np.hypot(re[:i] - re[i], im[:i] + im[i])  # |w - conj(z)|
        gaps[paired[:i]] = np.inf
        j = int(gaps.argmin()) if i else 0
        if i == 0 or gaps[j] > bound[i]:
            raise ValueError("eigenvalues do not come in conjugate pairs")
        paired[j] = True


def _as_time_major(arr) -> np.ndarray:
    """Coerce to (T, channels); a 1-d series becomes a single channel."""
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a (T, channels) array, got shape {a.shape}")
    return a


def _haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _realify(eigs_upper: np.ndarray, reals: np.ndarray) -> np.ndarray:
    """Block diagonal: one 2x2 block per conjugate pair, 1x1 per real."""
    d = 2 * len(eigs_upper) + len(reals)
    D = np.zeros((d, d))
    i = 0
    for z in eigs_upper:
        a, b = z.real, z.imag
        D[i : i + 2, i : i + 2] = [[a, b], [-b, a]]
        i += 2
    for r in reals:
        D[i, i] = r
        i += 1
    return D


def _assemble(
    eigs_upper: np.ndarray,
    reals: np.ndarray,
    d_in: int,
    d_out: int,
    rng: np.random.Generator,
    basis_cond: float,
    noise_sigma: float,
) -> LinearSystem:
    blocks = _realify(eigs_upper, reals)
    d_h = blocks.shape[0]
    Q = _haar_orthogonal(d_h, rng)
    scale = basis_cond ** rng.uniform(0.0, 1.0, size=d_h)
    P = Q * scale  # column scaling of an orthogonal Q
    A = P @ blocks @ np.linalg.inv(P)
    kappa = float(scale.max() / scale.min())  # cond(P), without its SVD
    B = rng.standard_normal((d_h, d_in)) / np.sqrt(d_h)
    C = rng.standard_normal((d_out, d_h)) / np.sqrt(d_h)
    eigs = np.concatenate([eigs_upper, np.conj(eigs_upper), reals.astype(complex)])
    return LinearSystem(A, B, C, eigs, kappa, noise_sigma)


def system_from_eigenvalues(
    eigenvalues,
    d_in: int,
    d_out: int,
    seed,
    basis_cond: float = 1.0,
    noise_sigma: float = 0.0,
) -> LinearSystem:
    """Build a system with the given eigenvalue multiset.

    Complex entries must appear with their conjugates; order is free.
    """
    eigs = np.asarray(eigenvalues, dtype=complex)
    if not 1.0 <= basis_cond < np.inf:
        raise ValueError(f"basis_cond must be >= 1 and finite, got {basis_cond}")
    _require_conjugate_closed(eigs)
    upper = eigs[eigs.imag > _EIG_TOL]
    reals = eigs[np.abs(eigs.imag) <= _EIG_TOL].real
    rng = np.random.default_rng(seed)
    return _assemble(upper, reals, d_in, d_out, rng, basis_cond, noise_sigma)


def _sample_pairs(rng: np.random.Generator, n: int, lo: float, hi: float, tau: float):
    """n points, uniform on {lo <= |z| <= hi, 0 < Im z <= min(tau, hi)}.

    They are the points of n scalar draws in turn, and the generator is left
    where those leave it.  A scalar draw on the arc lo == hi takes an angle,
    rng.uniform(0, tmax), and a coin, rng.uniform() < 0.5.  Otherwise it
    tries x = rng.uniform(-hi, hi), y = rng.uniform(0, min(tau, hi)) until a
    point lands, at most _MAX_REJECT times.  Here each batch of attempts is
    one random() call, and the batch that ends the sampling is redrawn from
    its saved state up to the doubles the scalar draws would have used.
    """
    cap = min(tau, hi)
    if lo == hi:  # degenerate annulus: sample the arc of the circle |z| = lo
        tmax = np.arcsin(min(cap / lo, 1.0)) if lo > 0 else 0.0
        if n and tmax <= 0:
            raise ValueError("infeasible eigenvalue constraints: empty arc")
        draws = rng.random((n, 2))
        theta = tmax * draws[:, 0]
        theta = np.where(draws[:, 1] < 0.5, np.pi - theta, theta)
        return lo * np.exp(1j * theta)
    points = np.empty(n, dtype=complex)
    got, start, done, size = 0, 0, 0, 16 * n  # start: the attempt the current point began at
    while got < n:
        state, size = rng.bit_generator.state, min(size, _MAX_BATCH)
        draws = rng.random((size, 2))
        x = -hi + (hi - -hi) * draws[:, 0]
        y = cap * draws[:, 1]
        r = np.hypot(x, y)  # abs(complex(x, y))
        end = None  # the attempts of this batch that the scalar draws use
        for h in np.flatnonzero((y > 0) & (lo <= r) & (r <= hi))[: n - got] + done:
            if h - start >= _MAX_REJECT:
                break
            points[got], got, start = complex(x[h - done], y[h - done]), got + 1, h + 1
            end = start - done
        failed = got < n and done + size - start >= _MAX_REJECT
        if failed or got == n:
            end = start + _MAX_REJECT - done if failed else end
            rng.bit_generator.state = state
            rng.random(out=draws.reshape(-1)[: 2 * end])
        if failed:
            raise ValueError("infeasible eigenvalue constraints: rejection sampling failed")
        done, size = done + size, 2 * size
    return points


def check_system_args(
    d_h, d_in, d_out, tau, radius_lo, radius_hi, noise_sigma, basis_cond, prefix: str = ""
) -> None:
    """Reject an argument of `sample_system` out of range, naming it after
    `prefix` by its `harness.GeneratorConfig` field name (tau is
    tau_thresh).  A NaN or an infinity is out of every range."""
    for name, value in (("d_h", d_h), ("d_in", d_in), ("d_out", d_out)):
        if not value >= 1:
            raise ValueError(f"{prefix}{name} must be >= 1, got {value}")
    if not (0.0 <= radius_lo <= radius_hi <= 1.0):
        raise ValueError(f"need 0 <= {prefix}radius_lo <= {prefix}radius_hi <= 1, "
                         f"got [{radius_lo}, {radius_hi}]")
    for name, value in (("tau", tau), ("noise_sigma", noise_sigma)):
        if not value >= 0:
            raise ValueError(f"{prefix}{name} must be >= 0, got {value}")
    if not basis_cond >= 1:
        raise ValueError(f"{prefix}basis_cond must be >= 1, got {basis_cond}")
    for name, value in (("tau", tau), ("noise_sigma", noise_sigma), ("basis_cond", basis_cond)):
        if not value < np.inf:
            raise ValueError(f"{prefix}{name} must be finite, got {value}")


def sample_system(
    d_h: int,
    d_in: int,
    d_out: int,
    tau_thresh: float,
    radius_lo: float,
    radius_hi: float,
    seed,
    noise_sigma: float = 0.0,
    basis_cond: float = 10.0,
) -> LinearSystem:
    """Sample a system whose eigenvalues lie in the annulus
    radius_lo <= |z| <= radius_hi cut to the strip |Im z| <= tau_thresh.

    tau_thresh = 0 gives an all-real spectrum with magnitudes uniform in
    [radius_lo, radius_hi] and random signs; otherwise eigenvalues come in
    conjugate pairs (plus one real when d_h is odd).  The pairs are drawn
    in batches from the same generator stream as a scalar rejection loop,
    so a seed gives the same system, and a `Generator` passed as the seed is
    left in the same state.
    """
    check_system_args(d_h, d_in, d_out, tau_thresh, radius_lo, radius_hi, noise_sigma, basis_cond)
    rng = np.random.default_rng(seed)

    def real_draw():
        return rng.choice([-1.0, 1.0]) * rng.uniform(radius_lo, radius_hi)

    if tau_thresh == 0.0:
        upper = np.array([], dtype=complex)
        reals = np.array([real_draw() for _ in range(d_h)])
    else:
        upper = _sample_pairs(rng, d_h // 2, radius_lo, radius_hi, tau_thresh)
        reals = np.array([real_draw()] if d_h % 2 else [])
    return _assemble(upper, reals, d_in, d_out, rng, basis_cond, noise_sigma)


def spectrum_summary(sys: LinearSystem) -> dict:
    """Both constraint views of the sampled spectrum: the generator caps
    |Im z| while the decay bounds care about |arg z|, so report each."""
    eigs = sys.eigenvalues
    return {
        "max_abs": float(np.abs(eigs).max()),
        "max_imag": float(np.abs(eigs.imag).max()),
        "max_arg": float(np.abs(np.angle(eigs)).max()),
        "kappa": float(sys.kappa),
    }


def gaussian_inputs(T: int, d_in: int, seed) -> np.ndarray:
    """I.i.d. standard normal input rows."""
    if T < 1 or d_in < 1:
        raise ValueError("T and d_in must be positive")
    return np.random.default_rng(seed).standard_normal((T, d_in))


def _stack(systems, shared: tuple[str, ...], widths: tuple[str, ...], inputs, seeds):
    """The run on each row, the `shared` matrices stacked over all rows and,
    per width class (d_in, d_out), its rows (a slice), (R_c, T, d_in) inputs,
    stacked `widths` matrices and empty (R_c, T, d_out) outputs, checking
    that the runs share d_h and their inputs' length."""
    if not systems:
        raise ValueError("need at least one system to simulate")
    if not len(systems) == len(inputs) == len(seeds):
        raise ValueError(
            f"got {len(systems)} systems, {len(inputs)} input streams and {len(seeds)} seeds"
        )
    us, classes = [_as_time_major(u) for u in inputs], {}
    for r, (sys, u) in enumerate(zip(systems, us)):
        if u.shape[1] != sys.d_in:
            raise ValueError(
                f"run {r}: inputs have {u.shape[1]} channels, system expects {sys.d_in}"
            )
        for name in shared:
            got, want = np.shape(getattr(sys, name)), np.shape(getattr(systems[0], name))
            if got != want:
                raise ValueError(f"run {r}: {name} has shape {got}, run 0 has {want}")
        if u.shape[0] != us[0].shape[0]:
            raise ValueError(f"run {r}: {u.shape[0]} input rows, run 0 has {us[0].shape[0]}")
        classes.setdefault((sys.d_in, sys.d_out), []).append(r)
    order, stacked = [], []
    for (_, d_out), runs in classes.items():
        stacked.append((slice(len(order), len(order) + len(runs)), np.stack([us[r] for r in runs]),
                        [np.stack([getattr(systems[r], name) for r in runs]) for name in widths],
                        np.empty((len(runs), us[0].shape[0], d_out))))
        order += runs
    return order, [np.stack([getattr(systems[r], name) for r in order]) for name in shared], stacked


def _chunks(classes, n: int):
    """Per chunk of _CHUNK steps from t0, the products of each row's first
    n `widths` matrices with its inputs, each (steps, R, d_h, 1) with item
    [k, row] M u_{t0+k}.  The caller turns the last into the states x_t in
    place; each class's last `widths` matrix C then reads them out."""
    for t0 in range(0, classes[0][1].shape[1], _CHUNK):
        steps = slice(t0, t0 + _CHUNK)
        products = [np.concatenate([np.matmul(M[i], u[:, steps].transpose(1, 0, 2)[..., None])
                                    for _, u, M, _ in classes], axis=1) for i in range(n)]
        yield products
        for rows, _, M, y in classes:
            y[:, steps] = np.matmul(M[-1], products[-1][:, rows])[..., 0].transpose(1, 0, 2)


def _trajectories(systems, seeds, order: list, classes) -> list[Trajectory]:
    """One trajectory per run, in input order, its noise from its own seed."""
    runs = [None] * len(order)
    for rows, u, _, y in classes:
        for r, u_r, y_r in zip(order[rows], u, y):
            if (sigma := systems[r].noise_sigma) > 0:
                y_r += sigma * np.random.default_rng(seeds[r]).standard_normal(y_r.shape)
            runs[r] = Trajectory(u_r, y_r)
    return runs


def simulate_lds_runs(systems, inputs, seeds) -> list[Trajectory]:
    """Roll every run's linear system forward from x_0 = 0 over its inputs,
    all runs in one stacked recursion.  The systems must share d_h and the
    inputs their length; d_in and d_out may differ.  Run r's noise is
    drawn from seeds[r].

    Per chunk of _CHUNK steps, a batched matmul per width class writes
    B u_t for every step into the chunk's state buffer, each step adds
    A x_{t-1} into every run's row, and a batched matmul per class reads
    C x_t out of the chunk.  Each item goes through the per-step product's
    BLAS kernel with its operands, so the trajectories are bit for bit
    those of x = A x + B u_t, y_t = C x, one run and one step at a time."""
    order, (A,), classes = _stack(systems, ("A",), ("B", "C"), inputs, seeds)
    x, Ax = np.zeros((2, len(order), A.shape[1], 1))
    for (X,) in _chunks(classes, 1):  # B u_t, then x_t
        for x_t in X:
            x_t += np.matmul(A, x, out=Ax)
            x = x_t
    return _trajectories(systems, seeds, order, classes)


def simulate_lds(sys: LinearSystem, inputs: np.ndarray, seed=None) -> Trajectory:
    """Roll the linear system forward from x_0 = 0 over the given inputs."""
    return simulate_lds_runs([sys], [inputs], [seed])[0]


def simulate_nonlinear_runs(systems, inputs, seeds) -> list[Trajectory]:
    """Roll every run's two-layer nonlinear system forward from x_0 = 0,
    all runs in one stacked recursion as in `simulate_lds_runs`.  Per
    chunk of steps, B1 u_t and B2 u_t are one batched matmul each per
    width class and the readout one more; a step does A1 x_{t-1} plus
    B1 u_t, tanh in place, and adds A2 times that into the row that holds
    B2 u_t."""
    order, (A1, A2), classes = _stack(systems, ("A1", "A2"), ("B1", "B2", "C"), inputs, seeds)
    x, h, Ah = np.zeros((3, len(order), A1.shape[1], 1))
    for B1u, X in _chunks(classes, 2):  # X: B2 u_t, then x_t
        for B1u_t, x_t in zip(B1u, X):
            np.matmul(A1, x, out=h)
            h += B1u_t
            np.tanh(h, out=h)
            x_t += np.matmul(A2, h, out=Ah)
            x = x_t
    return _trajectories(systems, seeds, order, classes)


def sample_nonlinear_system(
    d_h: int,
    d_in: int,
    d_out: int,
    tau_thresh: float,
    radius_lo: float,
    radius_hi: float,
    seed,
    noise_sigma: float = 0.0,
    basis_cond: float = 10.0,
) -> NonlinearSystem:
    """Sample both layers with the same eigenvalue control as sample_system."""
    layer1, layer2 = (
        sample_system(d_h, d_in, d_out, tau_thresh, radius_lo, radius_hi, s, basis_cond=basis_cond)
        for s in np.random.SeedSequence(seed).spawn(2)
    )
    return NonlinearSystem(layer1.A, layer1.B, layer2.A, layer2.B, layer1.C, noise_sigma)
