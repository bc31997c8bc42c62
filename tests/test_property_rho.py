"""Differential tests of the knapsack Δ and the in-repo ρ solver.

Every generated corpus has integer-valued μ (WCETs come from
``rng.integers``), on which all exact solvers must agree bit for bit,
so these tests compare with ``==``, never with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.blocking import lp_ilp_deltas
from repro.core.scenarios import (
    execution_scenarios,
    max_rho_by_cores,
    rho_assignment,
)
from repro.core.workload import mu_array
from repro.exceptions import AnalysisError
from repro.experiments.figure1 import DELTA3_LP_ILP, DELTA4_LP_ILP

from tests.strategies import integer_mu_tables


def _max_over_scenarios(table, m):
    return max(rho_assignment(table, scenario) for scenario in execution_scenarios(m))


@given(integer_mu_tables())
@settings(max_examples=150, deadline=None)
def test_knapsack_delta_equals_max_over_scenarios(case):
    m, table = case
    best = max_rho_by_cores(table, m)
    assert best[m] == _max_over_scenarios(table, m)
    assert best[m - 1] == _max_over_scenarios(table, m - 1)


def test_knapsack_delta_reproduces_figure1(fig1_tasks):
    table = {task.name: mu_array(task, 4) for task in fig1_tasks}
    best = max_rho_by_cores(table, 4)
    assert (best[4], best[3]) == (DELTA4_LP_ILP, DELTA3_LP_ILP) == (19.0, 15.0)
    assert lp_ilp_deltas(fig1_tasks, 4) == (19.0, 15.0)


def test_knapsack_delta_edges():
    assert max_rho_by_cores({}, 3) == [0.0] * 4
    assert max_rho_by_cores({"a": [5.0]}, 0) == [0.0]
    with pytest.raises(AnalysisError, match="need 2"):
        max_rho_by_cores({"a": [5.0]}, 2)
    with pytest.raises(AnalysisError, match=">= 0"):
        max_rho_by_cores({"a": [5.0]}, -1)


@pytest.fixture(scope="module")
def linear_sum_assignment():
    return pytest.importorskip("scipy.optimize").linear_sum_assignment


@given(integer_mu_tables())
@settings(max_examples=100, deadline=None)
def test_rho_assignment_matches_scipy(linear_sum_assignment, case):
    """Pins the in-repo solver to ``linear_sum_assignment``'s float."""
    m, table = case
    for scenario in execution_scenarios(m):
        if not scenario.parts:
            continue
        value = np.array(
            [[mu[part - 1] for part in scenario.parts] for mu in table.values()],
            dtype=float,
        )
        rows, cols = linear_sum_assignment(value, maximize=True)
        assert rho_assignment(table, scenario) == float(value[rows, cols].sum())
