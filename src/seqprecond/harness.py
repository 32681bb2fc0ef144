"""Experiment orchestration: data, grid search, metrics, sweeps.

Every run's randomness derives from the master seed through a single
documented split: SeedSequence(master_seed).generate_state(3 N) yields one
(system, inputs, noise) seed triple per run, so any table cell can be
regenerated in isolation: a run's trajectory is bit for bit the same
whichever runs are simulated beside it.  A CSV spec's one run is read by
`dynsys.ingest_csv`.  Reports are a pure function of the experiment
configuration and serialize to byte-identical JSON on repeat runs on one
platform at one BLAS thread count.  The desk-scale acceptance criteria
that pin these experiments, and the suites that `usp verify` runs, are
defined in `seqprecond.invariants` alone, which a run never loads.

`sweep` runs many specs in lockstep, and `run_experiment` is its one-spec
case, so there is one learning path.  Every data key (the CSV path, or
generator, horizon, master seed and n_runs) is loaded once, in this
process, before any group runs; the runs of all generated keys that share
(kind, d_h, T) are simulated in one stacked recursion.  Specs with one
group key (algo, T, d_in, d_out, and for spectral the bank's T', beta and
k) step all their (spec, rate, run) cells in one `ogd` call, from one
`learners.feature_blocks` layout with a tap count per cell over one window
stream per trajectory.  A cell's results do not depend on the cells
beside it, so every report is bit for bit the spec's own.  This process
runs the first group, and `workers` counts it: up to `workers` - 1 other
groups run at once, each in a child forked for it, which inherits the
data and sends back its reports and failures' messages (`_message`), so
a failure reads the same at every worker count, and a child that dies
fails its group alone.  Every child is reaped before the call returns.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import pickle
import select
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from seqprecond import dynsys, learners
from seqprecond.poly import (
    ComplexSector,
    CoefficientVector,
    chebyshev_monic,
    differencing,
    legendre_monic,
)
from seqprecond.spectral import DEFAULT_FILTER_COUNT, MAX_HORIZON, build_filter_bank

VARIANTS = ("none", "chebyshev", "legendre", "differencing", "learned", "custom")
ALGOS = ("regression", "spectral")
GENERATOR_KINDS = ("lds", "nonlinear")

DEFAULT_LR_GRID = (1e-3, 1e-2, 1e-1)

# Beyond this one spec's run, as `_fit_error` estimates it, stops being a
# desk-scale object: at T = 2000, d_out = 3 and 5 input taps a cell takes
# about 0.19 MB, so 1 GB holds about 5000 such cells, fewer with more taps.
MAX_RUN_BYTES = 10**9


def _item(v):
    """A numpy scalar's Python value, or v itself."""
    return v.item() if isinstance(v, np.generic) else v


def _python_fields(obj) -> None:
    """Make each list field of a frozen spec dataclass a tuple, and each numpy
    scalar, in a tuple too, its `.item()`: the spec then hashes and
    serializes as the one built from Python numbers."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        v = tuple(map(_item, v)) if isinstance(v, (list, tuple)) else _item(v)
        object.__setattr__(obj, f.name, v)


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic data source; defaults are the desk-scale protocol."""

    kind: str = "lds"  # one of GENERATOR_KINDS
    d_h: int = 50
    d_in: int = 1
    d_out: int = 1
    tau: float = 0.01
    radius_lo: float = 0.9
    radius_hi: float = 1.0
    noise_sigma: float = 0.1
    basis_cond: float = 10.0

    def __post_init__(self):
        _python_fields(self)


@dataclass(frozen=True)
class ExperimentSpec:
    algo: str = "regression"
    variant: str = "chebyshev"
    degree: int = 5
    custom_coeffs: tuple | None = None
    generator: GeneratorConfig | None = None
    csv_path: str | None = None
    lr_grid: tuple = DEFAULT_LR_GRID
    lr_grid_coeffs: tuple | None = None  # learned variant; defaults to lr_grid
    n_runs: int | None = None  # 1 for a CSV spec, 20 otherwise
    horizon: int = 2000
    window: int = 200
    master_seed: int = 0
    num_taps: int | None = None
    domain_bound: float = learners.DEFAULT_DOMAIN_BOUND
    beta: float = 0.1
    filter_count: int = DEFAULT_FILTER_COUNT
    norm_bound: float = 1.0
    kappa_bound: float = 1.0
    oracle_comparator: bool = False

    def __post_init__(self):
        if self.generator is None and self.csv_path is None:
            object.__setattr__(self, "generator", GeneratorConfig())
        if self.n_runs is None:
            object.__setattr__(self, "n_runs", 1 if self.csv_path is not None else 20)
        if isinstance(self.generator, dict):
            object.__setattr__(self, "generator", GeneratorConfig(**self.generator))
        _python_fields(self)


@dataclass(frozen=True)
class MetricsReport:
    algo: str
    variant: str
    degree: int
    tau: float | None
    mean: float
    std: float
    mean_full_horizon: float
    chosen_lr: object  # float, [lr_model, lr_coeffs], or None for comparator
    per_run_final_errors: list
    per_run_full_errors: list
    grid_results: list
    config_hash: str
    master_seed: int
    seeds: list
    horizon: int
    window: int
    n_runs: int
    meta: dict = field(default_factory=dict)


@functools.cache
def _field_kinds(cls) -> tuple:
    """(name, annotation, takes a bool, the kinds isinstance accepts) for
    each field of a spec dataclass, resolved once per class."""
    hints, kinds = typing.get_type_hints(cls), []
    for f in fields(cls):
        allowed = typing.get_args(hints[f.name]) or (hints[f.name],)
        kinds.append((f.name, f.type, bool in allowed,
                      tuple({int: numbers.Integral, float: numbers.Real}.get(t, t) for t in allowed)))
    return tuple(kinds)


def _check_field_types(obj, prefix: str = "") -> None:
    """Check each field of a spec dataclass against its annotation, naming
    the field.  A bool is no int or float here; a float takes any real."""
    for name, annotation, takes_bool, kinds in _field_kinds(type(obj)):
        value = getattr(obj, name)
        if not isinstance(value, kinds) or isinstance(value, bool) and not takes_bool:
            raise ValueError(f"{prefix}{name}: expected {annotation}, "
                             f"got {type(value).__name__} {value!r}")


def validate_spec(spec: ExperimentSpec) -> None:
    _check_field_types(spec)
    g = spec.generator
    if g is not None:
        _check_field_types(g, "generator.")
        if g.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {g.kind!r}")
        dynsys.check_system_args(g.d_h, g.d_in, g.d_out, g.tau, g.radius_lo, g.radius_hi,
                                 g.noise_sigma, g.basis_cond, "generator.")
    if spec.algo not in ALGOS:
        raise ValueError(f"unknown algorithm {spec.algo!r}")
    if spec.variant not in VARIANTS:
        raise ValueError(f"unknown variant {spec.variant!r}")
    if spec.n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    for name in ("master_seed", "num_taps", "domain_bound", "norm_bound", "kappa_bound"):
        value = getattr(spec, name)
        if value is not None and not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not 0 <= spec.beta <= 1:
        raise ValueError(f"beta must lie in [0, 1], got {spec.beta}")
    if spec.algo == "spectral" and spec.beta == 0:
        raise ValueError("beta must be > 0 on a spectral spec: at 0 its Gram matrix is all zero")
    if not spec.window >= 1:
        raise ValueError(f"window must be >= 1, got {spec.window}")
    if not spec.oracle_comparator and len(spec.lr_grid) == 0:
        raise ValueError("learning-rate grid must be nonempty")
    for name, floor in (("lr_grid", 0), ("lr_grid_coeffs", 0), ("custom_coeffs", -math.inf)):
        for x in getattr(spec, name) or ():
            real = isinstance(x, numbers.Real) and not isinstance(x, bool)
            if not (real and math.isfinite(x) and x >= floor):
                raise ValueError(f"{name} holds {x!r}: " + ("a learning rate must be finite and >= 0"
                                 if floor == 0 else "a coefficient must be a finite real number"))
    if spec.variant == "learned" and spec.algo != "regression":
        raise ValueError("the learned variant is defined for regression only")
    if spec.lr_grid_coeffs is not None and spec.variant != "learned":
        raise ValueError(f"lr_grid_coeffs applies to the learned variant, not {spec.variant!r}")
    if spec.variant == "custom" and not spec.custom_coeffs:
        raise ValueError("custom variant requires custom_coeffs")
    if spec.csv_path is None and (error := _fit_error(spec, spec.horizon, g.d_in, g.d_out)):
        raise error  # a CSV's horizon and widths are its own: `_run` checks them once it is read
    if spec.csv_path is None and (size := _systems_bytes([(g, spec.n_runs)])) > MAX_RUN_BYTES:
        raise ValueError(f"generator.d_h {g.d_h}, d_in {g.d_in}, d_out {g.d_out} and n_runs "
                         f"{spec.n_runs}: the systems would hold about {size // 10**6} MB, "
                         f"over MAX_RUN_BYTES ({MAX_RUN_BYTES // 10**6} MB)")
    c = resolve_coefficients(spec)
    with np.errstate(over="ignore"):  # a norm past the float range is named, not warned about
        if not math.isfinite(c.l1):
            raise ValueError(f"custom_coeffs: their l1 norm {c.l1} is not finite")
    if spec.oracle_comparator:
        if spec.csv_path is not None or spec.generator.kind != "lds":
            raise ValueError("oracle comparator needs a generated linear system")
        if spec.algo != "regression":
            raise ValueError("oracle comparator is defined for regression only")
        if spec.variant == "learned":
            raise ValueError("oracle_comparator=True holds the coefficients fixed: "
                             "it does not apply to variant='learned'")
        if c.degree == 0:
            raise ValueError(f"oracle comparator needs coefficients of degree >= 1; "
                             f"variant {spec.variant!r} gives degree 0")
    if spec.num_taps is not None and spec.algo == "spectral":
        raise ValueError(f"num_taps: a spectral spec reads degree + 1 taps, got {spec.num_taps}")
    if spec.num_taps not in (None, c.degree) and spec.oracle_comparator:
        raise ValueError(f"num_taps: the oracle reads degree {c.degree} taps, got {spec.num_taps}")
    if spec.csv_path is not None and spec.n_runs != 1:
        raise ValueError(f"a CSV spec holds one trajectory: n_runs must be 1, got {spec.n_runs}")


def _fit_error(spec: ExperimentSpec, T: int, d_in: int, d_out: int) -> ValueError | None:
    """The first way in which a spec does not fit T steps of d_in inputs and
    d_out outputs, or None: a window, input taps or lagged targets past T (a
    tap or lag past T reads only zeros), a filter bank of T - degree - 1
    steps that `build_filter_bank` refuses, or a run over MAX_RUN_BYTES: its
    data and deep-past features and, per (rate, run) cell, `ogd`'s predictions,
    about 3x them more, and a chunk of each block's gathered features with
    their rate-scaled copy or, if the block is fixed, its products with the
    weights, d_out of them per input feature; and the copy of the largest
    block's chunk of every run's stream that `np.take` makes to gather it."""
    if spec.window > T:
        return ValueError(f"window {spec.window} exceeds data horizon {T}")
    if spec.algo == "regression":
        k, taps, name = 0, _input_taps(spec), "num_taps" if spec.num_taps is not None else "degree"
        if taps > T:
            return ValueError(f"{name}: the spec reads {taps} input taps, "
                              f"more than the data horizon {T}")
        lags = resolve_coefficients(spec).degree
        name = "custom_coeffs" if spec.variant == "custom" else "degree"
        if lags > T:
            return ValueError(f"{name}: the spec reads {lags} lagged targets, "
                              f"more than the data horizon {T}")
    else:
        m, _, k = _bank_shape(spec, T)
        n = T - m - 1
        if not 1 <= m <= MAX_HORIZON:
            return ValueError(f"a spectral filter bank spans horizon - degree - 1 steps, "
                              f"which must lie in [1, {MAX_HORIZON}]: horizon {T} and degree "
                              f"{n} give {m}")
        if not 0 <= k <= m:
            return ValueError(f"filter_count must lie in [0, horizon - degree - 1] = [0, {m}] "
                              f"for coefficients of degree {n}, got {k}")
        taps, lags = n + 1, n + 2  # the window u_t..u_{t-n} and the lags of (1 - x^2) p(x)
    rows, n_runs = min(T, learners._CHUNK), spec.n_runs
    chunk = rows * ((taps + k) * d_in * (1 + d_out) + 2 * lags * d_out)
    gather = rows * n_runs * max(taps * d_in, lags * d_out, k * d_in)
    cells = n_runs * len(_grid(spec))
    size = 8 * (T * n_runs * (d_in + d_out + k * d_in) + cells * (3 * T * d_out + chunk) + gather)
    if size > MAX_RUN_BYTES:
        return ValueError(f"n_runs {spec.n_runs} and horizon {T}: the run would hold about "
                          f"{size // 10**6} MB, over MAX_RUN_BYTES ({MAX_RUN_BYTES // 10**6} MB)")


def _systems_bytes(runs: list) -> int:
    """Sampling and simulating the systems of (generator, n_runs) pairs of one kind and d_h
    peak near 6 d_h^2 floats plus, per run and layer, A, B and C's d_h (d_h + d_in + d_out)
    twice: the system and its stacked copy."""
    d_h, layers = runs[0][0].d_h, 1 if runs[0][0].kind == "lds" else 2
    return 8 * d_h * (6 * d_h + 2 * layers * sum(n * (d_h + g.d_in + g.d_out) for g, n in runs))


def _bank_shape(spec: ExperimentSpec, T: int) -> tuple:
    """A spectral spec's bank over T steps: (T - degree - 1, its sector, filter_count)."""
    return T - resolve_coefficients(spec).degree - 1, ComplexSector(spec.beta), spec.filter_count


def _input_taps(spec: ExperimentSpec) -> int:
    """A regression spec's input taps: the oracle's degree, num_taps, or max(degree, 1)."""
    if spec.oracle_comparator:
        return resolve_coefficients(spec).degree
    return spec.num_taps if spec.num_taps is not None else max(spec.degree, 1)


def resolve_coefficients(spec: ExperimentSpec) -> CoefficientVector:
    """Map (variant, degree) to the fixed or initial coefficient vector.

    For 'none' the vector is the trivial [1] and degree only sets the
    number of learned input taps, keeping comparisons at equal capacity.
    """
    if spec.variant == "none":
        return CoefficientVector(np.array([1.0]))
    if spec.variant == "chebyshev" or spec.variant == "learned":
        return chebyshev_monic(spec.degree)
    if spec.variant == "legendre":
        return legendre_monic(spec.degree)
    if spec.variant == "differencing":
        return differencing()
    return CoefficientVector(np.asarray(spec.custom_coeffs, dtype=float))


def derive_seeds(master_seed: int, n_runs: int) -> list[int]:
    """The documented hash-split: 3 uint32 seeds per run, in run order."""
    state = np.random.SeedSequence(master_seed).generate_state(3 * n_runs)
    return [int(s) for s in state]


def spec_hash(spec: ExperimentSpec) -> str:
    payload = json.dumps(asdict(spec), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _sample_runs(g: GeneratorConfig, horizon: int, seeds: list[int]):
    """Every run's system and inputs, and its noise seed: run r draws them
    from seeds[3 r : 3 r + 3]."""
    sample = dynsys.sample_system if g.kind == "lds" else dynsys.sample_nonlinear_system
    systems = [sample(g.d_h, g.d_in, g.d_out, g.tau, g.radius_lo, g.radius_hi, s,
                      noise_sigma=g.noise_sigma, basis_cond=g.basis_cond) for s in seeds[0::3]]
    return systems, [dynsys.gaussian_inputs(horizon, g.d_in, s) for s in seeds[1::3]], seeds[2::3]


def _data_key(spec: ExperimentSpec):
    """Specs with one data key read the same trajectories: a CSV path, or
    the generator, horizon, master seed and run count."""
    if spec.csv_path is not None:
        return spec.csv_path
    return (spec.generator, spec.horizon, spec.master_seed, spec.n_runs)


def _load(keys) -> dict:
    """Each data key's runs and systems (None each when nonlinear), or the
    exception that loading it raised.  A CSV is read by `dynsys.ingest_csv`.
    Generated keys are sampled one by one, and those that share (kind, d_h,
    T) are simulated in one stacked recursion per batch: a key joins the
    last batch while `_systems_bytes` of the batch's runs and its own stays
    within MAX_RUN_BYTES.  A key whose sampling fails, or whose simulated
    outputs are not finite, fails alone; a failed simulation fails its
    batch.  Every generated trajectory, `usp gen-data`'s included, is
    loaded here."""
    data, stacks = {}, {}
    for key in keys:
        try:
            if isinstance(key, str):
                data[key] = [dynsys.ingest_csv(key)], [None]  # one file, one run
            else:
                g, horizon, seed, n_runs = key
                sampled = _sample_runs(g, horizon, derive_seeds(seed, n_runs))
                batches = stacks.setdefault((g.kind, g.d_h, horizon), [[]])
                size = _systems_bytes([(g, n_runs)] + [(h, n) for (h, *_, n), _ in batches[-1]])
                if batches[-1] and size > MAX_RUN_BYTES:
                    batches.append([])
                batches[-1].append((key, sampled))
        except Exception as exc:  # noqa: BLE001 - the failure of every spec that reads it
            data[key] = exc
    for (kind, *_), batches in stacks.items():
        simulate = dynsys.simulate_lds_runs if kind == "lds" else dynsys.simulate_nonlinear_runs
        for batch in batches:
            batch_keys, sampled = zip(*batch)
            try:  # every run of the batch in one call, then each key's runs in order
                with np.errstate(over="ignore", invalid="ignore"):  # a non-finite run is named
                    runs = iter(simulate(*(sum(parts, []) for parts in zip(*sampled))))
                for key, (systems, _, _) in batch:
                    kept = systems if kind == "lds" else [None] * len(systems)
                    loaded = [next(runs) for _ in systems]
                    bad = [r for r, run in enumerate(loaded) if not np.isfinite(run.outputs).all()]
                    data[key] = (loaded, kept) if not bad else ValueError(
                        f"generator.noise_sigma {key[0].noise_sigma} and basis_cond "
                        f"{key[0].basis_cond}: the outputs of run {bad[0]} are not finite")
            except Exception as exc:  # noqa: BLE001 - the failure of every key it simulates
                data.update(dict.fromkeys(batch_keys, exc))
    return data


def _grid(spec: ExperimentSpec) -> list:
    """The spec's grid points as (model rate, coefficient rate) pairs: (lr,
    0.0) for each rate, every pair for the learned variant, or one (0.0,
    0.0) for the oracle comparator, which holds its weights and lags."""
    if spec.oracle_comparator:
        return [(0.0, 0.0)]
    if spec.variant == "learned":
        coeff_grid = spec.lr_grid_coeffs if spec.lr_grid_coeffs else spec.lr_grid
        return [(m, cc) for m in spec.lr_grid for cc in coeff_grid]
    return [(lr, 0.0) for lr in spec.lr_grid]


def _group_predictions(specs: list, data: dict) -> list:
    """Each spec's (len(grid) * n_runs, T, d_out) predictions, as views of
    one `ogd` call over (spec, rate, run) cells: specs in order, rates
    major, runs minor.  A cell has its run's trajectory, its spec's
    learner, its rates and its oracle weights."""
    keys = list(dict.fromkeys(map(_data_key, specs)))
    first = dict(zip(keys, np.cumsum([0] + [len(data[k][0]) for k in keys]).tolist()))
    trajs = [traj for k in keys for traj in data[k][0]]
    u = np.stack([traj.inputs for traj in trajs])
    y = np.stack([traj.outputs for traj in trajs])
    T, spectral = y.shape[1], specs[0].algo == "spectral"
    bank = build_filter_bank(*_bank_shape(specs[0], T)) if spectral else None  # one bank
    cells, ends = [], []  # (trajectory, model rate, coefficient rate, learner, initial weights)
    for spec in specs:
        c, key = resolve_coefficients(spec), _data_key(spec)
        if spectral:
            learner = learners.SpectralLearner(c, bank, total_horizon=T, norm_bound=spec.norm_bound,
                                               kappa_bound=spec.kappa_bound)
        else:
            learner = learners.RegressionLearner(c, num_taps=_input_taps(spec),
                                                 domain_bound=spec.domain_bound)
        for rates in _grid(spec):
            for run, system in enumerate(data[key][1]):
                init = learners.oracle_weights(system, c) if spec.oracle_comparator else None
                cells.append((first[key] + run, *rates, learner, init))
        ends.append(len(cells))
    traj, lr, lr_lag, owners, init = map(list, zip(*cells))
    blocks = learners.feature_blocks(u, y, owners, lr, lr_lag, index=traj, init=init)
    return np.split(learners.ogd(blocks, learners.Rows(y, traj))[0], ends[:-1])


def _report(spec: ExperimentSpec, preds: np.ndarray, data) -> MetricsReport:
    """A spec's report from its cells' (len(grid) * n_runs, T, d_out)
    predictions and its runs and systems.  It consumes the predictions: it
    reduces them to errors in place."""
    runs, systems = data
    y = np.stack([traj.outputs for traj in runs])
    c, grid = resolve_coefficients(spec), _grid(spec)
    T = y.shape[-2]
    meta = {"coefficient_l1": c.l1, "seed_derivation": "SeedSequence(master).generate_state(3N)"}
    if systems[0] is not None:
        meta["spectra"] = [dynsys.spectrum_summary(s) for s in systems]
    labels = [None if spec.oracle_comparator else list(point) if spec.variant == "learned"
              else point[0] for point in grid]
    preds = preds.reshape(len(grid), *y.shape)
    finite = np.isfinite(preds).all(axis=-1)
    grid_results, finished = [], []  # finished: (mean, grid point, index) of each finite point
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite number is named below
        errs = np.abs(np.subtract(preds, y, out=preds), out=preds).sum(axis=-1)
        finals, fulls = errs[..., -spec.window :].mean(axis=-1), errs.mean(axis=-1)
        stats = zip(finals.mean(-1).tolist(), finals.std(-1).tolist(), fulls.mean(-1).tolist())
    for i, (lr, ok, (mean, std, full)) in enumerate(zip(labels, finite, stats)):
        if not ok.all():
            run = int(np.argmin(ok.all(axis=-1)))  # the first diverged run
            step = int(np.argmin(ok[run]))  # and its first non-finite step
            grid_results.append({"lr": lr, "diverged": {"run": run, "step": step}})
            continue
        for value, what in ((mean, "mean of the final-window"), (std, "std of the final-window"),
                            (full, "mean of the full-horizon")):
            if not math.isfinite(value):  # a run's non-finite error makes its mean non-finite
                raise ValueError(f"{what} errors at lr={lr} is not finite")
        grid_results.append({"lr": lr, "mean": mean, "std": std, "mean_full_horizon": full})
        finished.append((mean, grid[i], i))
    if not finished:
        failed = grid_results[0]["diverged"]
        raise ValueError(f"non-finite prediction at step {failed['step']} of {T} "
                         f"(lr={labels[0]}, run {failed['run']})")
    best = min(finished)[2]  # ties go to the smaller rates
    winner = grid_results[best]
    return MetricsReport(
        algo=spec.algo,
        variant=spec.variant,
        degree=spec.degree,
        tau=spec.generator.tau if spec.csv_path is None else None,
        mean=winner["mean"],
        std=winner["std"],
        mean_full_horizon=winner["mean_full_horizon"],
        chosen_lr=winner["lr"],
        per_run_final_errors=finals[best].tolist(),
        per_run_full_errors=fulls[best].tolist(),
        grid_results=[] if spec.oracle_comparator else grid_results,
        config_hash=spec_hash(spec),
        master_seed=spec.master_seed,
        seeds=derive_seeds(spec.master_seed, spec.n_runs),
        horizon=T,
        window=spec.window,
        n_runs=spec.n_runs,
        meta=meta,
    )


def _run_group(specs: list, data: dict) -> list:
    """Each spec's report, or the exception it failed with, for the specs
    of one group: all their cells step in one `ogd` call over the runs and
    systems that `data` maps their data keys to.  A failed `ogd` call
    fails every spec of the group, a failed report its spec alone."""
    try:
        preds = _group_predictions(specs, data)
    except Exception as exc:  # noqa: BLE001 - every spec of the group fails with it
        return [exc] * len(specs)
    outcomes = []
    for spec, p in zip(specs, preds):
        try:
            outcomes.append(_report(spec, p, data[_data_key(spec)]))
        except Exception as exc:  # noqa: BLE001 - that spec's failure alone
            outcomes.append(exc)
    return outcomes


def _message(exc: BaseException) -> str:
    """A failure's text: its message, or its type's name if that is empty."""
    return str(exc) or type(exc).__name__


def _run_groups(tasks: list, workers: int) -> list:
    """Each task's `_run_group` outcome, with at most `workers` tasks
    running at once, this process's included: it runs task 0, and before
    each of its tasks forks a child per free slot for the next ones (none
    where `os.fork` does not exist).  A child pickles its outcome, each
    failure as its `_message`, to a pipe that this process drains after
    each of its tasks and then until all are done, so no outcome is too
    large to send.  A child that dies fails its group alone, naming its
    exit status or signal.  Every child is reaped before this returns or raises."""
    outcomes, alive, started = [None] * len(tasks), {}, 0  # alive: pipe -> task, pid, chunks
    children, poller = (workers - 1, select.poll()) if hasattr(os, "fork") else (0, None)

    def drain(timeout):  # read the ready pipes; reap each child whose pipe closed
        while alive and (ready := poller.poll(timeout)):
            for r, _ in ready:
                if chunk := os.read(r, 1 << 16):
                    alive[r][2].append(chunk)
                    continue
                i, pid, chunks = alive.pop(r)
                poller.unregister(r)
                os.close(r)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code == 0 and chunks:
                    outcomes[i] = pickle.loads(b"".join(chunks))
                else:
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    lost = f"the process running this group was terminated abruptly ({how})"
                    outcomes[i] = [lost] * len(tasks[i][0])

    try:
        while started < len(tasks):
            mine, started = started, started + 1
            while started < len(tasks) and len(alive) < children:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:  # the child: run the task, send its outcome, exit
                    try:
                        os.close(r)
                        with os.fdopen(w, "wb") as out:
                            pickle.dump([x if isinstance(x, MetricsReport) else _message(x)
                                         for x in _run_group(*tasks[started])], out)
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(w)
                alive[r], started = (started, pid, []), started + 1
                poller.register(r, select.POLLIN)
            outcomes[mine] = _run_group(*tasks[mine])
            drain(0)
        drain(None)
    finally:  # on an error here, stop and reap the children still running
        for r, (_, pid, _) in alive.items():
            os.close(r)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return outcomes


def _run(specs: list, workers: int = 1) -> list:
    """Each validated spec's report, or the exception it failed with (from
    a child, a RuntimeError carrying its `_message`), in input order.

    Every data key is loaded once, here, before any group runs (`_load`).
    Specs are grouped by (algo, T, d_in, d_out), read off their data, and,
    for spectral, by the filter bank (T', beta, k).  Each group is one
    `_run_group` task, at most `workers` at once (`_run_groups`): the
    first in this process, the others here or in children forked for them,
    which inherit the data.  A load failure, or a CSV spec that does not
    fit its file's length and widths (`_fit_error`), fails only the specs
    that read that data.
    """
    data = _load(dict.fromkeys(map(_data_key, specs)))
    results, groups = [None] * len(specs), {}
    for i, spec in enumerate(specs):
        loaded = data[_data_key(spec)]
        if isinstance(loaded, Exception):
            results[i] = loaded
            continue
        traj = loaded[0][0]
        T, d_in, d_out = traj.horizon, traj.inputs.shape[1], traj.outputs.shape[1]
        if spec.csv_path is not None and (error := _fit_error(spec, T, d_in, d_out)):
            results[i] = error  # `validate_spec` has checked a generated spec's fit
            continue
        group = (spec.algo, T, d_in, d_out)
        if spec.algo == "spectral":
            group += _bank_shape(spec, T)
        groups.setdefault(group, []).append(i)
    groups = list(groups.values())
    outcomes = _run_groups([([specs[i] for i in members], data) for members in groups], workers)
    for members, outcome in zip(groups, outcomes):
        for i, result in zip(members, outcome):  # a child's failure comes as its message
            results[i] = RuntimeError(result) if isinstance(result, str) else result
    return results


def run_experiment(spec: ExperimentSpec) -> MetricsReport:
    """Run one experiment configuration with a learning-rate grid search.

    The rate is chosen on the reported metric (final-window mean absolute
    error averaged over runs); full-horizon means are logged alongside so
    the regret-flavoured view stays available.  Ties break toward the
    smallest rate.  The runs' data is simulated once, in one stacked
    recursion, and every (rate, run) cell steps in one `ogd` recursion
    over features built once per run.  A grid point where some run's
    prediction is not finite is recorded as {"lr", "diverged": {"run",
    "step"}}, with the first such run and its first non-finite step, and
    is never chosen; when every point diverges, the first one's failure
    is raised as a ValueError.  The oracle comparator is a one-point grid
    that `grid_results` does not list.  This is `sweep` of one spec,
    which raises the failure instead of recording it.
    """
    validate_spec(spec)
    (result,) = _run([spec])
    if isinstance(result, Exception):
        raise result
    return result


def report_to_json(report: MetricsReport) -> str:
    """The report as strict JSON: a NaN or infinite field raises a ValueError."""
    return json.dumps(asdict(report), sort_keys=True, indent=2, allow_nan=False)


@dataclass(frozen=True)
class SweepFailure:
    config_hash: str
    error: str


def sweep(specs: list[ExperimentSpec], workers: int = 1) -> list:
    """Run several specs in lockstep; failures are recorded, siblings continue.

    All specs are validated before any data is loaded, and each data key
    is loaded once, in this process (`_run`).  Specs that share (algo, T,
    d_in, d_out), and for spectral the filter bank (T', beta, k), form a
    group whose (spec, rate, run) cells step in one `ogd` recursion; each
    spec's report is bit for bit its `run_experiment` report.  A spec that
    fails, on its data or because every grid point diverged, is a
    `SweepFailure` with the exception's message, or its type's name when
    that is empty, at every worker count; the rest of its group still
    reports.  At most `workers` groups run at once: the first in this
    process, the others here or in children forked for them (here alone
    where `os.fork` does not exist).  A child that dies fails its group
    alone, as a `SweepFailure` that says it was terminated abruptly and
    gives its exit status or signal; a hard crash here ends the call.  No
    child outlives the call.  Results come back in input order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not specs:
        raise ValueError("sweep needs at least one spec")
    for spec in specs:
        validate_spec(spec)
    return [SweepFailure(spec_hash(spec), _message(r)) if isinstance(r, Exception) else r
            for spec, r in zip(specs, _run(specs, workers))]


def sweep_table_csv(reports: list) -> str:
    """Wide table: one row per (algorithm, tau) setting, one column per
    variant/degree, cells formatted mean±std.  A report whose cell is
    already taken, by a spec that differs in a field the table does not
    show (such as d_in), goes on a row of its own, tagged with its
    config_hash."""
    ok = [r for r in reports if isinstance(r, MetricsReport)]
    cols = sorted({(r.variant, r.degree) for r in ok})
    cells = {}
    for r in ok:
        row, col = (r.algo, r.tau, ""), (r.variant, r.degree)
        if (row, col) in cells:
            row = (r.algo, r.tau, r.config_hash)
        cells[row, col] = f"{r.mean:.4g}±{r.std:.4g}"
    rows = sorted({row for row, _ in cells}, key=lambda k: (k[0], k[1] is None, k[1], k[2]))
    header = ["setting"] + [f"{v}-{d}" for v, d in cols]
    lines = [",".join(header)]
    for row in rows:
        tag = f"{row[0]} tau={row[1]}" if row[1] is not None else f"{row[0]} csv"
        line = [f"{tag} {row[2]}".rstrip()] + [cells.get((row, col), "") for col in cols]
        lines.append(",".join(line))
    return "\n".join(lines) + "\n"
