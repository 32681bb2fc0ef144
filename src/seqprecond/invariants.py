"""The ten acceptance criteria: the package's quantitative claims, each defined once.

Each criterion is a function that returns its detail line and raises
`AssertionError` against the tolerance or time limit pinned here.  `SUITES`
(`harness.SUITES`) groups them by the module whose claim they pin; `verify`
runs one suite or all of them for `usp verify` and
`tests/test_acceptance.py`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from seqprecond import dynsys, harness, poly
from seqprecond.learners import RegressionLearner, SpectralLearner, lagged, ogd, oracle_weights
from seqprecond.precond import convolve, reconstruct_prediction
from seqprecond.spectral import build_filter_bank, build_gram, gram_entry

TOL_GRAM_DIAG = 1e-12
TOL_GRAM_QUAD = 1e-8
TOL_IDENTITY = 1e-12
POLAR_GRID = 256
DESK = dict(n_runs=20, horizon=2000, window=200, master_seed=0)


def _verdict(ok, detail: str) -> str:
    """Return the detail line, or raise it as an AssertionError (also under -O)."""
    if not ok:
        raise AssertionError(detail)
    return detail


def chebyshev_sector_decay() -> str:
    """01: the monic Chebyshev degree-n polynomial is below 2^(2-n) on its sector."""
    t0 = time.perf_counter()
    ratios = []
    violations = 0
    for n in range(1, 11):
        c = poly.chebyshev_monic(n)
        beta = 1.0 / (64.0 * n * n)
        r = np.linspace(0.0, 1.0, POLAR_GRID)
        theta = np.linspace(-beta, beta, POLAR_GRID)
        z = r[:, None] * np.exp(1j * theta[None, :])
        vals = np.abs(poly.eval_complex(c, z))
        bound = 2.0 ** (2 - n)
        violations += int(np.count_nonzero(~(vals <= bound)))  # a NaN is a violation
        ratios.append(np.max(vals) / bound)
    worst = float(np.max(ratios))
    elapsed = time.perf_counter() - t0
    detail = (f"degrees 1..10, {POLAR_GRID}x{POLAR_GRID} polar grid, "
              f"{violations} violations, worst ratio {worst:.3f}, {elapsed:.1f}s")
    return _verdict(violations == 0 and elapsed < 10.0, detail)


def coefficient_growth_exact() -> str:
    """02: max |c_i| <= 2^(3n/10) for degrees 1..20, in exact arithmetic."""
    t0 = time.perf_counter()
    violations = 0
    for n in range(1, 21):
        mx = max(abs(v) for v in poly.chebyshev_exact(n))
        if mx**10 > Fraction(2) ** (3 * n):
            violations += 1
    elapsed = time.perf_counter() - t0
    detail = f"degrees 1..20, {violations} violations, {elapsed:.2f}s"
    return _verdict(violations == 0 and elapsed < 1.0, detail)


def gram_closed_form() -> str:
    """03: closed-form Gram entries match their diagonal expression and quadrature.

    The quadrature is a tensor Gauss-Legendre rule in polar coordinates.  In r
    the integrand is a polynomial of degree j+k+5 <= 511, which 260 nodes
    integrate exactly; in theta 64 nodes resolve cos((j-k) theta) on the sector.
    """
    diag_errs = []
    for beta in (0.01, 0.1, 0.5):
        sector = poly.ComplexSector(beta)
        for j in range(257):
            ref = beta * (1 / (j + 1) + 1 / (j + 3)) - np.sin(2 * beta) / (j + 2)
            diag_errs.append(gram_entry(j, j, sector) - ref)
    worst_diag = float(np.max(np.abs(diag_errs)))
    spots = [
        (0, 1), (0, 2), (1, 3), (2, 5), (3, 4), (5, 8), (7, 2), (10, 13),
        (16, 5), (20, 21), (24, 30), (32, 17), (40, 45), (50, 8), (64, 66),
        (80, 3), (100, 101), (128, 40), (200, 5), (256, 250),
    ]
    r, w_r = np.polynomial.legendre.leggauss(260)
    r, w_r = (r + 1) / 2, w_r / 2  # mapped to [0, 1]
    s, w_s = np.polynomial.legendre.leggauss(64)  # scaled to [-beta, beta] per spot
    quad_errs = []
    for idx, (j, k) in enumerate(spots):
        beta = (0.01, 0.1, 0.5)[idx % 3]
        th = beta * s
        damp = 1 - 2 * r[:, None] ** 2 * np.cos(2 * th) + r[:, None] ** 4
        ref = beta * (w_r * r ** (j + k + 1)) @ (damp * np.cos((j - k) * th)) @ w_s
        quad_errs.append(gram_entry(j, k, poly.ComplexSector(beta)) - ref)
    worst_quad = float(np.max(np.abs(quad_errs)))
    detail = (f"diagonal j<=256 err {worst_diag:.2e} (tol {TOL_GRAM_DIAG}), "
              f"{len(spots)}-point off-diagonal err {worst_quad:.2e} (tol {TOL_GRAM_QUAD})")
    return _verdict(worst_diag < TOL_GRAM_DIAG and worst_quad < TOL_GRAM_QUAD, detail)


def gram_eigendecay() -> str:
    """04: trace <= 6 beta ln T' and at most 6 ln T' eigenvalues above beta."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for horizon in (64, 256, 1024):
        for beta in (0.01, 0.1):
            Z = build_gram(horizon, poly.ComplexSector(beta))
            sigma = np.linalg.eigvalsh(Z)
            trace_bound = 6 * beta * np.log(horizon)
            count_bound = 6 * np.log(horizon)
            big = int((sigma > beta).sum())
            ok &= np.trace(Z) <= trace_bound and big <= count_bound
            details.append(f"T'={horizon},b={beta}:tr {np.trace(Z):.3f}<={trace_bound:.2f},"
                           f"#{big}<={count_bound:.0f}")
    elapsed = time.perf_counter() - t0
    detail = "; ".join(details[:2]) + f"; ... {elapsed:.1f}s"
    return _verdict(ok and elapsed < 60.0, detail)


def oracle_weights_per_step() -> str:
    """05: fixed oracle weights meet the comparator bound at every step."""
    t0 = time.perf_counter()
    degree, horizon = 5, 200
    c = poly.chebyshev_monic(degree)
    rng = np.random.default_rng(99)
    worst_margin = 0.0
    ok = True
    for trial in range(10):
        d_h = int(rng.integers(2, 9))
        eigs = rng.uniform(0.0, 0.99, size=d_h)
        system = dynsys.system_from_eigenvalues(
            eigs, d_in=1, d_out=1, seed=int(rng.integers(1 << 31)),
            basis_cond=float(rng.uniform(1.0, 5.0)),
        )
        traj = dynsys.simulate_lds(system, dynsys.gaussian_inputs(horizon, 1, seed=trial))
        learner = RegressionLearner(
            c, num_taps=degree, lr0=0.0, init_Q=oracle_weights(system, c),
        )
        errs = np.abs(learner.run(traj.inputs, traj.outputs) - traj.outputs).sum(axis=1)
        kappa = dynsys.spectrum_summary(system)["kappa"]
        bound = (
            np.linalg.norm(system.C, 2) * np.linalg.norm(system.B, 2)
            * kappa * 2.0 ** (2 - degree) * horizon
        )
        ok &= bool((errs <= bound).all())
        worst_margin = max(worst_margin, float(errs.max() / bound))
    elapsed = time.perf_counter() - t0
    detail = f"10 noiseless systems, every step, worst err/bound {worst_margin:.2e}, {elapsed:.1f}s"
    return _verdict(ok and elapsed < 30.0, detail)


def ogd_regret() -> str:
    """06: projected subgradient regret is at most 1.5 G D sqrt(T)."""
    T = 10_000
    trivial = poly.CoefficientVector(np.array([1.0]))
    G, D = 1.0, 2.0  # unit inputs, domain [-1, 1]
    bound = 1.5 * G * D * np.sqrt(T)
    names = ("constant", "alternating")
    ys = np.stack([np.full(T, 2.0), 2.0 * (-1.0) ** np.arange(T)])[..., None]
    # one cell per target sequence; both see the same unit inputs
    u = np.ones((1, T, 1))
    learner = RegressionLearner(trivial, num_taps=1, domain_bound=1.0)
    totals = np.abs(ogd(learner.blocks(u, ys), ys)[0] - ys).sum(axis=(-2, -1))
    grid = np.linspace(-1.0, 1.0, 2001)
    results = []
    ok = True
    for name, y, total in zip(names, ys[..., 0], totals):
        best = min(np.abs(g - y).sum() for g in grid)  # one row at a time: no (grid, T) array
        regret = float(total) - best
        ok &= regret <= bound
        results.append(f"{name} {regret:.1f}")
    detail = f"regret {', '.join(results)} <= 1.5*G*D*sqrt(T) = {bound:.0f}"
    return _verdict(ok, detail)


def average_error_decays_with_horizon() -> str:
    """10: average error over T=4000 is below that over the first 1000 steps."""
    t0 = time.perf_counter()
    system = dynsys.sample_system(d_h=50, d_in=1, d_out=1, tau_thresh=0.01,
                                  radius_lo=0.9, radius_hi=1.0, seed=2024, noise_sigma=0.0)
    seeds = range(10)
    runs = dynsys.simulate_lds_runs(
        [system] * len(seeds), [dynsys.gaussian_inputs(4000, 1, seed=s) for s in seeds],
        [None] * len(seeds),
    )
    # one cell per input seed, all stepping in one recursion
    u = np.stack([traj.inputs for traj in runs])
    y = np.stack([traj.outputs for traj in runs])
    learner = RegressionLearner(poly.chebyshev_monic(5), num_taps=5, lr0=0.01)
    errs = np.abs(ogd(learner.blocks(u, y), y)[0] - y).sum(axis=-1)
    short = float(np.mean(errs[:, :1000].mean(axis=-1)))
    long_ = float(np.mean(errs.mean(axis=-1)))
    elapsed = time.perf_counter() - t0
    detail = (f"one noiseless system, 10 seeds: {long_:.4f} < {short:.4f} "
              f"(ratio {long_ / short:.2f}), {elapsed:.1f}s")
    return _verdict(long_ < short, detail)


def identities_and_determinism() -> str:
    """09: exact transform identities, and byte-identical reports per seed."""
    rng = np.random.default_rng(5)
    c = poly.chebyshev_monic(4)

    # convolve then reconstruct returns the raw stream
    y = rng.standard_normal((80, 2))
    z = convolve(y, c)
    back = [reconstruct_prediction(z[t], hist, c)  # hist: the 4 targets before t, newest first
            for t, hist in enumerate(lagged(y, 4, 1))]
    worst_rt = float(np.max(np.abs(back - y)))

    # direct online learner == offline transform + inner learner + reconstruction,
    # so the raw and preconditioned residuals coincide
    system = dynsys.sample_system(d_h=8, d_in=2, d_out=2, tau_thresh=0.05,
                                  radius_lo=0.8, radius_hi=0.95, seed=11, noise_sigma=0.05)
    traj = dynsys.simulate_lds(system, dynsys.gaussian_inputs(150, 2, seed=12), seed=13)
    online = RegressionLearner(c, num_taps=4, lr0=0.05).run(traj.inputs, traj.outputs)
    z = convolve(traj.outputs, c)
    inner = RegressionLearner(poly.CoefficientVector(np.array([1.0])), num_taps=4, lr0=0.05)
    z_hats = inner.run(traj.inputs, z)
    raw_hats = [reconstruct_prediction(z_hat, hist, c)
                for z_hat, hist in zip(z_hats, lagged(traj.outputs, 4, 1))]
    worst_stream = float(np.max(np.abs(raw_hats - online)))

    # spectral prediction is additive in its parameter blocks
    bank = build_filter_bank(60, poly.ComplexSector(0.1), 8)
    spectral = SpectralLearner(poly.chebyshev_monic(3), bank, total_horizon=80)
    u_hist = rng.standard_normal((40, 2))
    y_hist = rng.standard_normal((40, 2))
    (X_Q, Q0, _, R_Q), lag, (X_M, M0, _, R_M) = spectral.blocks(u_hist, y_hist)
    Q = rng.standard_normal(Q0.shape)
    M = rng.standard_normal(M0.shape)

    def predict(Q, M):  # rate 0: the weights stay at Q and M
        return ogd([(X_Q, Q, 0.0, R_Q), lag, (X_M, M, 0.0, R_M)], y_hist)[0]

    deletion = (
        predict(Q, M)
        - predict(Q, np.zeros_like(M))
        - predict(np.zeros_like(Q), M)
        + predict(np.zeros_like(Q), np.zeros_like(M))
    )
    worst_del = float(np.abs(deletion).max())

    # reports are byte-identical under a fixed master seed
    deterministic = True
    for algo in ("regression", "spectral"):
        spec = harness.ExperimentSpec(
            algo=algo, generator=harness.GeneratorConfig(d_h=6, tau=0.05),
            n_runs=2, horizon=100, window=25, degree=3, master_seed=4,
            lr_grid=(1e-2,), filter_count=8,
        )
        first, second = (harness.report_to_json(harness.run_experiment(spec)) for _ in range(2))
        deterministic &= first == second

    detail = (f"round-trip {worst_rt:.1e}, offline-vs-online {worst_stream:.1e}, "
              f"term-deletion {worst_del:.1e}, reports byte-identical: {deterministic}")
    return _verdict(
        worst_rt < TOL_IDENTITY
        and worst_stream < TOL_IDENTITY
        and worst_del < TOL_IDENTITY
        and deterministic,
        detail,
    )


def desk_runs() -> tuple:
    """The desk-scale reports of 07 and 08: baseline, Chebyshev 5, Chebyshev 10.

    One sweep: the three specs share their data key, so the 20 systems are
    simulated once, and their 180 cells step in one `ogd` call.
    """
    reports = harness.sweep([harness.ExperimentSpec(variant=variant, degree=degree, **DESK)
                             for variant, degree in (("none", 5), ("chebyshev", 5),
                                                     ("chebyshev", 10))])
    for report in reports:
        if isinstance(report, harness.SweepFailure):
            raise ValueError(report.error)
    return tuple(reports)


def desk_scale_improvement(runs=desk_runs) -> str:
    """07: Chebyshev degree 5 beats 0.8 x the baseline's final-window error."""
    baseline, cheb5, _ = runs()
    detail = (f"chebyshev-5 {cheb5.mean:.4f}±{cheb5.std:.4f} vs "
              f"0.8 x baseline {baseline.mean:.4f}±{baseline.std:.4f} = {0.8 * baseline.mean:.4f}")
    return _verdict(cheb5.mean < 0.8 * baseline.mean, detail)


def degree_degradation(runs=desk_runs) -> str:
    """08: Chebyshev degree 10 does worse than degree 5."""
    _, cheb5, cheb10 = runs()
    detail = f"chebyshev-10 {cheb10.mean:.4f} > chebyshev-5 {cheb5.mean:.4f}"
    return _verdict(cheb10.mean > cheb5.mean, detail)


SUITES = harness.SUITES  # named there, so that the CLI offers them without this module


@dataclass(frozen=True)
class VerifyResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'ok' if self.passed else 'FAIL'}] {self.suite}/{self.name}: {self.detail}"


def verify(suite: str = "all") -> list[VerifyResult]:
    """Run the criteria of one suite, or of all; the CLI exits 2 on failure.

    A failing or crashing criterion does not stop the others.  The harness
    criteria share one set of desk runs, which lives only for this call.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; options: all, {', '.join(SUITES)}")
    desk = functools.cache(desk_runs)
    results = []
    for sname, names in SUITES.items():
        if suite in ("all", sname):
            for name in names:
                args = (desk,) if sname == "harness" else ()
                try:
                    passed, detail = True, globals()[name](*args)
                except AssertionError as exc:
                    passed, detail = False, str(exc) or "assertion failed"
                except Exception as exc:  # noqa: BLE001 - any crash is a failure
                    passed, detail = False, f"{type(exc).__name__}: {exc}"
                results.append(VerifyResult(sname, name, passed, detail))
    return results
