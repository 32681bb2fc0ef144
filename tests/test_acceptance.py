"""Release gate: the ten acceptance criteria, one pass/fail line each.

The criteria, their tolerances and their time limits are defined once, in
`seqprecond.invariants`; this module runs them through one `verify("all")`
(the same call as `usp verify`) and gives each criterion its own test,
which prints the criterion's line (visible with ``pytest -s`` or on
failure) and asserts its result.  A NaN planted in what criteria 01, 03
and 09 measure must fail them.
"""

import numpy as np
import pytest

from seqprecond import invariants


@pytest.fixture(scope="module")
def gate():
    results = invariants.verify("all")
    assert len(results) == 10
    assert {r.suite for r in results} == set(invariants.SUITES)
    return {r.name: r for r in results}


def _criterion(gate, name):
    result = gate[name]
    print(result)
    assert result.passed, str(result)


def test_01_chebyshev_sector_decay(gate):
    _criterion(gate, "chebyshev_sector_decay")


def test_02_coefficient_growth_exact(gate):
    _criterion(gate, "coefficient_growth_exact")


def test_03_gram_closed_form(gate):
    _criterion(gate, "gram_closed_form")


def test_04_gram_eigendecay(gate):
    _criterion(gate, "gram_eigendecay")


def test_05_oracle_weights_per_step(gate):
    _criterion(gate, "oracle_weights_per_step")


def test_06_ogd_regret(gate):
    _criterion(gate, "ogd_regret")


def test_07_desk_scale_improvement(gate):
    _criterion(gate, "desk_scale_improvement")


def test_08_degree_degradation(gate):
    _criterion(gate, "degree_degradation")


def test_09_identities_and_determinism(gate):
    _criterion(gate, "identities_and_determinism")


def test_10_average_error_decays_with_horizon(gate):
    _criterion(gate, "average_error_decays_with_horizon")


# ---------------------------------------------------------------------------
# a NaN anywhere in what a criterion measures fails it


def test_a_nan_on_the_sector_grid_fails_criterion_01(monkeypatch):
    eval_complex = invariants.poly.eval_complex

    def planted(c, z):
        vals = eval_complex(c, z)
        if c.degree == 7:
            vals[-1, -1] = np.nan
        return vals

    monkeypatch.setattr(invariants.poly, "eval_complex", planted)
    with pytest.raises(AssertionError, match="worst ratio nan"):
        invariants.chebyshev_sector_decay()


@pytest.mark.parametrize("spot", [(100, 100), (64, 66)])  # diagonal, quadrature
def test_a_nan_gram_entry_fails_criterion_03(monkeypatch, spot):
    gram_entry = invariants.gram_entry

    def planted(j, k, sector):
        return np.nan if (j, k) == spot else gram_entry(j, k, sector)

    monkeypatch.setattr(invariants, "gram_entry", planted)
    with pytest.raises(AssertionError, match="err nan"):
        invariants.gram_closed_form()


def test_a_nan_online_prediction_fails_criterion_09(monkeypatch):
    run = invariants.RegressionLearner.run

    def planted(self, inputs, outputs):
        preds = run(self, inputs, outputs)
        preds[100, 0] = np.nan
        return preds

    monkeypatch.setattr(invariants.RegressionLearner, "run", planted)
    with pytest.raises(AssertionError, match="offline-vs-online nan"):
        invariants.identities_and_determinism()
