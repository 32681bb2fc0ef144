"""The run contract over drawn specs (a derandomized `hypothesis` property).

Small specs (T <= 60, d <= 3, n_runs <= 3) cover every algorithm, variant,
generator kind and oracle setting, a CSV, `num_taps` and `domain_bound`:
each algorithm is drawn on each data source, and the oracle on a linear
system, each from a fixed seed of its own.  Their floats come from the
whole range, with 1e200 to 1e308, infinities and NaN drawn on purpose.
For every drawn list of specs:
- `validate_spec` raises nothing but a ValueError;
- a valid spec's outcome, its report JSON or its failure's message, is
  the same from `run_experiment` as from its entry in `sweep(workers=1)`;
- every report writes as strict JSON;
- `usp run` on the spec's JSON config exits 0 with a report, else 1.
Every valid spec drawn then runs in one `sweep(workers=2)`, where its
outcome is the same again: a drawn list is mostly one group, which runs
in this process, while all of them together make dozens of groups, the
first in this process and the others here or in a forked child.
"""

import json
import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from seqprecond import harness as H
from seqprecond.cli import main
from seqprecond.dynsys import gaussian_inputs, sample_system, simulate_lds, write_trajectory_csv

INF, NAN = math.inf, math.nan
EXTREME = st.one_of(
    st.sampled_from([0.0, -1.0, 1e200, 1e308, INF, -INF, NAN]),
    st.floats(1e200, 1e308),
    st.floats(),
)


def mostly(typical, other, odds=16):
    """`typical`, or one time in `odds` `other`."""
    return st.integers(1, odds).flatmap(lambda i: other if i == odds else typical)


def sometimes(typical):
    """A typical float, or one time in sixteen one from the ends of the range."""
    return mostly(typical, EXTREME)


def wide(typical):
    """A typical float, or as often one from the ends of the range."""
    return st.one_of(typical, EXTREME)


@st.composite
def configs(draw, algo, data, oracle, csv_path):
    """One spec's JSON config for an algorithm, a data source ("lds",
    "nonlinear" or "csv") and an oracle setting: mostly valid, so that
    most reach the run."""
    horizon = draw(mostly(st.integers(1, 60), st.integers(0, 60)))
    variant = draw(st.sampled_from(H.VARIANTS))
    cfg = dict(
        algo=draw(mostly(st.just(algo), st.just("nope"))),
        variant=variant,
        degree=draw(mostly(st.integers(0, 6), st.integers(0, 64))),
        horizon=horizon,
        window=draw(mostly(st.integers(1, max(horizon, 1)), st.integers(0, 64))),
        master_seed=draw(mostly(st.integers(0, 2**32), st.just(-1))),
        lr_grid=draw(st.lists(sometimes(st.sampled_from(H.DEFAULT_LR_GRID)), min_size=1,
                              max_size=3)),
        oracle_comparator=draw(mostly(st.just(oracle), st.just(not oracle))),
        domain_bound=draw(sometimes(st.floats(0, 20))),
        beta=draw(sometimes(st.floats(0.01, 1))),
        filter_count=draw(mostly(st.integers(0, 8), st.integers(-1, 64))),
        norm_bound=draw(sometimes(st.floats(0, 2))),
        kappa_bound=draw(sometimes(st.floats(0, 2))),
    )
    if draw(st.booleans()):
        cfg["num_taps"] = draw(mostly(st.integers(0, 8), st.integers(-1, 64)))
    if variant == "learned" or draw(mostly(st.just(False), st.just(True))):
        cfg["lr_grid_coeffs"] = draw(st.lists(sometimes(st.floats(0, 0.1)), max_size=2))
    if variant == "custom" or draw(mostly(st.just(False), st.just(True))):
        cfg["custom_coeffs"] = [draw(sometimes(st.just(1.0)))] + draw(
            st.lists(wide(st.floats(-2, 2)), max_size=3))
    if data == "csv":
        cfg.update(csv_path=csv_path, n_runs=draw(mostly(st.just(None), st.just(2))))
        return cfg
    lo, hi = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    cfg["n_runs"] = draw(mostly(st.integers(1, 3), st.just(0)))
    cfg["generator"] = dict(
        kind=data,
        d_h=draw(mostly(st.integers(1, 6), st.just(0))),
        d_in=draw(st.integers(1, 3)),
        d_out=draw(st.integers(1, 3)),
        tau=draw(sometimes(st.floats(0, 0.5))),
        radius_lo=draw(sometimes(st.just(lo))),
        radius_hi=draw(sometimes(st.just(hi))),
        noise_sigma=draw(wide(st.floats(0, 1))),
        basis_cond=draw(sometimes(st.floats(1, 100))),
    )
    return cfg


def outcome(result):
    """("report", its JSON) or ("failure", the message) of one spec's result."""
    if isinstance(result, H.SweepFailure):
        return "failure", result.error
    if isinstance(result, Exception):
        return "failure", str(result)
    return "report", H.report_to_json(result)


def strict(token):
    raise ValueError(f"{token} is not JSON")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    system = sample_system(d_h=4, d_in=2, d_out=1, tau_thresh=0.05, radius_lo=0.5,
                           radius_hi=0.99, seed=1)
    write_trajectory_csv(simulate_lds(system, gaussian_inputs(40, 2, seed=2), seed=3),
                         str(path / "traj.csv"))
    return path


def test_run_contract(workdir):
    drawn = []  # (spec, outcome) of every valid spec, in the order drawn

    def check(cfgs):
        valid = []
        for cfg in cfgs:
            spec = H.ExperimentSpec(**cfg)
            try:
                H.validate_spec(spec)
            except ValueError:
                continue
            try:
                result = H.run_experiment(spec)
            except Exception as exc:  # noqa: BLE001 - compared by its message
                result = exc
            valid.append((cfg, spec, outcome(result)))
        if not valid:
            return
        for (cfg, spec, want), got in zip(valid, H.sweep([s for _, s, _ in valid], workers=1)):
            assert outcome(got) == want
            kind, text = want
            if kind == "report":
                json.loads(text, parse_constant=strict)
            config = workdir / "config.json"
            config.write_text(json.dumps(cfg))
            code = main(["run", "--config", str(config), "--out", str(workdir / "out.json")])
            assert code == int(kind == "failure")
            drawn.append((spec, want))

    csv = str(workdir / "traj.csv")
    shapes = [(algo, data, False) for algo in H.ALGOS for data in ("lds", "nonlinear", "csv")]
    for i, shape in enumerate([*shapes, ("regression", "lds", True)]):  # so all are drawn
        specs = st.lists(configs(*shape, csv), min_size=1, max_size=3)
        seed(i)(settings(max_examples=16)(given(specs)(check)))()
    assert {kind for _, (kind, _) in drawn} == {"report", "failure"}
    seen = [(s.algo, s.variant, s.oracle_comparator, s.csv_path or s.generator.kind)
            for s, _ in drawn]  # the valid specs cover every setting
    assert [set(column) for column in zip(*seen)] == [
        set(H.ALGOS), set(H.VARIANTS), {False, True}, {"lds", "nonlinear", csv}]
    pooled = H.sweep([spec for spec, _ in drawn], workers=2)
    assert [outcome(r) for r in pooled] == [want for _, want in drawn]
