"""Release gate: the ten acceptance criteria, one pass/fail line each.

The criteria, their tolerances and their time limits are defined once, in
`seqprecond.invariants`; this module runs them through one `verify("all")`
(the same call as `usp verify`) and gives each criterion its own test,
which prints the criterion's line (visible with ``pytest -s`` or on
failure) and asserts its result.
"""

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
