"""Synthetic linear and two-layer nonlinear dynamical systems.

A linear system evolves as x_t = A x_{t-1} + B u_t, y_t = C x_t + noise
with x_0 = 0, so y_1 already carries the instantaneous C B u_1 term.
Transition matrices are built from a sampled eigenvalue multiset: complex
values in conjugate pairs become 2x2 rotation-scaling blocks, the block
diagonal is conjugated by a random well-conditioned basis, and the basis
condition number is recorded as kappa.

The runs of an experiment are simulated together: `simulate_lds_runs` and
`simulate_nonlinear_runs` stack R systems of one shape and step their
states x of shape (R, d_h, 1) through one recursion, x = A x + B u_t with
A of shape (R, d_h, d_h), keeping only the current states between steps.
Each run's trajectory is bit for bit the one it gets alone, and its noise
comes from its own seed, added after the loop.  `simulate_lds` and
`simulate_nonlinear` are the single-run case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EIG_TOL = 1e-9
_MAX_REJECT = 100_000


@dataclass(frozen=True)
class LinearSystem:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    eigenvalues: np.ndarray  # sampled multiset, conjugate-closed
    kappa: float  # condition number of the eigenbasis actually used
    noise_sigma: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        d = A.shape[0]
        if A.shape != (d, d):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != d:
            raise ValueError(f"B must be ({d}, d_in), got {B.shape}")
        if C.ndim != 2 or C.shape[1] != d:
            raise ValueError(f"C must be (d_out, {d}), got {C.shape}")
        for name, M in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
        eigs = np.asarray(self.eigenvalues, dtype=complex)
        if eigs.shape != (d,):
            raise ValueError(f"expected {d} eigenvalues, got shape {eigs.shape}")
        if np.abs(eigs).max() > 1.0 + _EIG_TOL:
            raise ValueError(
                f"marginal stability ceiling violated: max |eig| = {np.abs(eigs).max()}"
            )
        _require_conjugate_closed(eigs)
        if self.kappa < 1.0 - 1e-9:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "eigenvalues", eigs)

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
    """Two recurrent layers with an activation between them.

    x_t = A2 act(A1 x_{t-1} + B1 u_t) + B2 u_t, y_t = C x_t + noise.
    """

    A1: np.ndarray
    B1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    noise_sigma: float = 0.0
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

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


def _require_conjugate_closed(eigs: np.ndarray) -> None:
    """A real matrix forces the spectrum to pair each z with conj(z)."""
    pending = [z for z in eigs if abs(z.imag) > _EIG_TOL]
    while pending:
        z = pending.pop()
        gaps = [abs(w - np.conj(z)) for w in pending]
        if not gaps or min(gaps) > _EIG_TOL * (1 + abs(z)):
            raise ValueError("eigenvalues do not come in conjugate pairs")
        pending.pop(int(np.argmin(gaps)))


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
    P = Q * scale  # column scaling, cond(P) = max(scale)/min(scale)
    A = P @ blocks @ np.linalg.inv(P)
    kappa = float(np.linalg.cond(P))
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
    if basis_cond < 1.0:
        raise ValueError("basis_cond must be >= 1")
    upper = eigs[eigs.imag > _EIG_TOL]
    lower = eigs[eigs.imag < -_EIG_TOL]
    reals = eigs[np.abs(eigs.imag) <= _EIG_TOL].real
    if len(upper) != len(lower):
        raise ValueError("complex eigenvalues must come in conjugate pairs")
    rng = np.random.default_rng(seed)
    return _assemble(upper, reals, d_in, d_out, rng, basis_cond, noise_sigma)


def _sample_pair(
    rng: np.random.Generator, lo: float, hi: float, tau: float
) -> complex:
    """One point, uniform on {lo <= |z| <= hi, 0 < Im z <= min(tau, hi)}."""
    cap = min(tau, hi)
    if lo == hi:
        # degenerate annulus: sample the arc of the circle |z| = lo
        tmax = np.arcsin(min(cap / lo, 1.0)) if lo > 0 else 0.0
        if tmax <= 0:
            raise ValueError("infeasible eigenvalue constraints: empty arc")
        theta = rng.uniform(0.0, tmax)
        if rng.uniform() < 0.5:
            theta = np.pi - theta
        return lo * np.exp(1j * theta)
    for _ in range(_MAX_REJECT):
        x = rng.uniform(-hi, hi)
        y = rng.uniform(0.0, cap)
        z = complex(x, y)
        if y > 0 and lo <= abs(z) <= hi:
            return z
    raise ValueError("infeasible eigenvalue constraints: rejection sampling failed")


def check_system_args(
    d_h, d_in, d_out, tau, radius_lo, radius_hi, noise_sigma, basis_cond, prefix: str = ""
) -> None:
    """Reject an argument of `sample_system` out of range, naming it after
    `prefix` by its `harness.GeneratorConfig` field name (tau is
    tau_thresh).  A NaN is out of every range."""
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
    conjugate pairs (plus one real when d_h is odd).
    """
    check_system_args(d_h, d_in, d_out, tau_thresh, radius_lo, radius_hi, noise_sigma, basis_cond)
    rng = np.random.default_rng(seed)

    def real_draw():
        return rng.choice([-1.0, 1.0]) * rng.uniform(radius_lo, radius_hi)

    if tau_thresh == 0.0:
        upper = np.array([], dtype=complex)
        reals = np.array([real_draw() for _ in range(d_h)])
    else:
        n_pairs = d_h // 2
        upper = np.array(
            [_sample_pair(rng, radius_lo, radius_hi, tau_thresh) for _ in range(n_pairs)]
        )
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


def _stack(systems, names: tuple[str, ...], inputs, seeds):
    """Stack the named matrices of every run's system and its (T, d_in)
    inputs, checking that all runs agree on their shapes."""
    if not systems:
        raise ValueError("need at least one system to simulate")
    if not len(systems) == len(inputs) == len(seeds):
        raise ValueError(
            f"got {len(systems)} systems, {len(inputs)} input streams and {len(seeds)} seeds"
        )
    us = [_as_time_major(u) for u in inputs]
    for r, (sys, u) in enumerate(zip(systems, us)):
        if u.shape[1] != sys.d_in:
            raise ValueError(
                f"run {r}: inputs have {u.shape[1]} channels, system expects {sys.d_in}"
            )
        for name in names:
            got, want = np.shape(getattr(sys, name)), np.shape(getattr(systems[0], name))
            if got != want:
                raise ValueError(f"run {r}: {name} has shape {got}, run 0 has {want}")
        if u.shape[0] != us[0].shape[0]:
            raise ValueError(f"run {r}: {u.shape[0]} input rows, run 0 has {us[0].shape[0]}")
    return [np.stack([getattr(sys, name) for sys in systems]) for name in names], np.stack(us)


def _trajectories(systems, u: np.ndarray, y: np.ndarray, seeds) -> list[Trajectory]:
    """One trajectory per run, each with noise drawn from its own seed."""
    for r, (sys, seed) in enumerate(zip(systems, seeds)):
        if sys.noise_sigma > 0:
            y[r] += sys.noise_sigma * np.random.default_rng(seed).standard_normal(y[r].shape)
    return [Trajectory(u_r, y_r) for u_r, y_r in zip(u, y)]


def simulate_lds_runs(systems, inputs, seeds) -> list[Trajectory]:
    """Roll every run's linear system forward from x_0 = 0 over its inputs,
    all runs in one stacked recursion.  The systems must share their
    shapes and the inputs their length; run r's noise is drawn from
    seeds[r]."""
    (A, B, C), u = _stack(systems, ("A", "B", "C"), inputs, seeds)
    R, T = u.shape[:2]
    y = np.empty((R, T, C.shape[1]))
    x = np.zeros((R, A.shape[1], 1))
    for t in range(T):
        x = A @ x + B @ u[:, t, :, None]
        y[:, t] = (C @ x)[..., 0]
    return _trajectories(systems, u, y, seeds)


def simulate_lds(sys: LinearSystem, inputs: np.ndarray, seed=None) -> Trajectory:
    """Roll the linear system forward from x_0 = 0 over the given inputs."""
    return simulate_lds_runs([sys], [inputs], [seed])[0]


def simulate_nonlinear_runs(systems, inputs, seeds) -> list[Trajectory]:
    """Roll every run's two-layer nonlinear system forward from x_0 = 0,
    all runs in one stacked recursion as in `simulate_lds_runs`.  The
    systems must also share their activation."""
    (A1, B1, A2, B2, C), u = _stack(systems, ("A1", "B1", "A2", "B2", "C"), inputs, seeds)
    for r, nl in enumerate(systems):
        if nl.activation != systems[0].activation:
            raise ValueError(
                f"run {r}: activation {nl.activation!r}, run 0 has {systems[0].activation!r}"
            )
    act = np.tanh if systems[0].activation == "tanh" else (lambda v: v)
    R, T = u.shape[:2]
    y = np.empty((R, T, C.shape[1]))
    x = np.zeros((R, A1.shape[1], 1))
    for t in range(T):
        u_t = u[:, t, :, None]
        x = A2 @ act(A1 @ x + B1 @ u_t) + B2 @ u_t
        y[:, t] = (C @ x)[..., 0]
    return _trajectories(systems, u, y, seeds)


def simulate_nonlinear(
    nl: NonlinearSystem, inputs: np.ndarray, seed=None
) -> Trajectory:
    """Roll the two-layer nonlinear system forward from x_0 = 0."""
    return simulate_nonlinear_runs([nl], [inputs], [seed])[0]


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
    activation: str = "tanh",
) -> NonlinearSystem:
    """Sample both layers with the same eigenvalue control as sample_system."""
    ss = np.random.SeedSequence(seed)
    s1, s2 = ss.spawn(2)
    layer1 = sample_system(
        d_h, d_in, d_out, tau_thresh, radius_lo, radius_hi, s1,
        basis_cond=basis_cond,
    )
    layer2 = sample_system(
        d_h, d_in, d_out, tau_thresh, radius_lo, radius_hi, s2,
        basis_cond=basis_cond,
    )
    return NonlinearSystem(
        A1=layer1.A, B1=layer1.B, A2=layer2.A, B2=layer2.B, C=layer1.C,
        noise_sigma=noise_sigma, activation=activation,
    )
