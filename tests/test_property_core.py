"""Property-based tests on the analysis core (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.combinatorics import partition_count, partition_count_pentagonal, partitions
from repro.core.scenarios import (
    execution_scenarios,
    rho_assignment,
    rho_bruteforce,
    rho_ilp,
)
from repro.core.workload import mu_array, mu_bruteforce, mu_value
from repro.graph import max_parallelism

from tests.strategies import integer_mu_tables, mu_tables, random_dags


class TestMuProperties:
    @given(random_dags(max_nodes=8), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_all_solvers_agree_with_bruteforce(self, dag, c):
        expected = mu_bruteforce(dag, c)
        assert mu_value(dag, c, "search") == expected
        assert mu_value(dag, c, "ilp") == expected
        assert mu_value(dag, c, "ilp-paper") == expected

    @given(random_dags())
    def test_mu1_is_max_wcet(self, dag):
        assert mu_value(dag, 1) == max(n.wcet for n in dag.nodes)

    @given(random_dags(max_nodes=9))
    @settings(deadline=None)
    def test_mu_zero_exactly_beyond_width(self, dag):
        width = max_parallelism(dag)
        mu = mu_array(dag, min(len(dag) + 1, 6))
        for c, value in enumerate(mu, start=1):
            if c <= width:
                assert value > 0
            else:
                assert value == 0.0

    @given(random_dags(max_nodes=9))
    @settings(deadline=None)
    def test_mu_bounded(self, dag):
        mu = mu_array(dag, 4)
        top = mu_value(dag, 1)
        for c, value in enumerate(mu, start=1):
            assert value <= c * top
            assert value <= dag.volume

    @given(random_dags(max_nodes=9))
    @settings(deadline=None)
    def test_positive_mu_implies_positive_below(self, dag):
        mu = mu_array(dag, 5)
        for c in range(1, 5):
            if mu[c] > 0:
                assert mu[c - 1] > 0


class TestRhoProperties:
    @given(integer_mu_tables())
    @settings(max_examples=100, deadline=None)
    def test_assignment_matches_bruteforce(self, case):
        m, table = case
        for scenario in execution_scenarios(m):
            assert rho_assignment(table, scenario) == rho_bruteforce(table, scenario)

    @given(mu_tables(m=4))
    @settings(max_examples=60, deadline=None)
    def test_paper_ilp_never_exceeds_assignment(self, table):
        """The paper ILP is the assignment problem plus extra
        constraints, so (when feasible) it cannot exceed the assignment
        optimum — and with μ ≥ 0 it matches it exactly."""
        for scenario in execution_scenarios(4):
            via_ilp = rho_ilp(table, scenario, 4)
            if via_ilp is not None:
                assert via_ilp == pytest.approx(rho_assignment(table, scenario))

    @given(mu_tables(max_tasks=3), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_rho_monotone_in_tasks(self, table, m):
        """Adding a lower-priority task can only increase the blocking."""
        extended = dict(table)
        extended["extra"] = [5.0, 5.0, 5.0, 5.0][:4]
        for scenario in execution_scenarios(m):
            assert rho_assignment(extended, scenario) >= rho_assignment(
                table, scenario
            )


class TestPartitionProperties:
    @given(st.integers(0, 25))
    def test_counting_functions_agree(self, m):
        assert partition_count(m) == partition_count_pentagonal(m)

    @given(st.integers(0, 14))
    def test_enumeration_matches_count(self, m):
        parts = list(partitions(m))
        assert len(parts) == partition_count(m)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == m for p in parts)
