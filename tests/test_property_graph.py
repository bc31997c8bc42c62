"""Property-based tests on graph algorithms (hypothesis)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import dag_fingerprint
from repro.core.workload import mu_array
from repro.exceptions import CycleError
from repro.graph import (
    algorithm1_par_sets,
    ancestors_map,
    descendants_map,
    is_antichain,
    longest_path_length,
    longest_path_nodes,
    max_parallelism,
    par_sets_oracle,
)
from repro.graph.properties import antichains
from repro.model.dag import DAG
from repro.model.serialization import dag_from_dict, dag_to_dict

from tests.strategies import random_dags


class TestStructuralInvariants:
    @given(random_dags())
    def test_topological_order_respects_edges(self, dag):
        position = {n: i for i, n in enumerate(dag.topological_order)}
        assert all(position[u] < position[v] for u, v in dag.edges)

    @given(random_dags())
    def test_longest_path_bounds(self, dag):
        lp = longest_path_length(dag)
        assert max(n.wcet for n in dag.nodes) <= lp <= dag.volume

    @given(random_dags())
    def test_longest_path_nodes_is_a_path_with_that_length(self, dag):
        nodes = longest_path_nodes(dag)
        assert all(dag.has_edge(u, v) for u, v in zip(nodes, nodes[1:]))
        assert abs(sum(dag.wcet(n) for n in nodes) - longest_path_length(dag)) < 1e-9

    @given(random_dags())
    def test_serialization_round_trip(self, dag):
        assert dag_from_dict(dag_to_dict(dag)) == dag

    @given(random_dags())
    def test_reachability_maps_are_mutually_inverse(self, dag):
        succ = descendants_map(dag)
        pred = ancestors_map(dag)
        for u in dag.node_names:
            for v in succ[u]:
                assert u in pred[v]
            for v in pred[u]:
                assert u in succ[v]


class TestParallelismProperties:
    @given(random_dags(single_source=True))
    @settings(max_examples=150)
    def test_algorithm1_matches_oracle_on_single_source(self, dag):
        """The paper's Algorithm 1 (with the path-reachability check)
        must compute exactly the no-path relation on single-source DAGs."""
        assert algorithm1_par_sets(dag, edge_check="path") == par_sets_oracle(dag)

    @given(random_dags())
    def test_oracle_par_sets_are_symmetric_and_exclude_relatives(self, dag):
        par = par_sets_oracle(dag)
        succ = descendants_map(dag)
        for v, others in par.items():
            assert v not in others
            for w in others:
                assert v in par[w]
                assert w not in succ[v] and v not in succ[w]

    @given(random_dags(max_nodes=8))
    def test_width_equals_bruteforce_max_antichain(self, dag):
        brute = max((len(c) for c in antichains(dag)), default=0)
        assert max_parallelism(dag) == brute

    @given(random_dags(max_nodes=8))
    def test_all_enumerated_antichains_pass_is_antichain(self, dag):
        for chain in antichains(dag, max_size=3):
            assert is_antichain(dag, chain)


def _sorted_kahn(dag):
    """The reference topological order: Kahn's algorithm re-sorting the
    ready list by insertion rank after every release."""
    rank = {name: i for i, name in enumerate(dag.node_names)}
    indegree = {name: len(dag.predecessors(name)) for name in dag.node_names}
    ready = [name for name in dag.node_names if indegree[name] == 0]
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for succ in dag.successors(current):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
                ready.sort(key=rank.__getitem__)
    return tuple(order)


@st.composite
def shuffled_dags(draw, min_nodes=1):
    """A random DAG rebuilt under random node and edge insertion orders."""
    dag = draw(random_dags(min_nodes=min_nodes, max_nodes=12, edge_probability=0.3))
    nodes = draw(st.permutations(list(dag.nodes)))
    edges = draw(st.permutations(list(dag.edges)))
    return DAG(nodes, edges)


#: Per-instance memo entries the library stores in ``DAG.__dict__``.
_MEMO_KEYS = ("_longest_path", "_mu_search_setup", "_content_fingerprint")


class TestConstructorInvariants:
    @given(shuffled_dags())
    def test_heap_kahn_matches_sorted_kahn(self, dag):
        assert dag.topological_order == _sorted_kahn(dag)
        assert dag.topological_rank == {
            name: i for i, name in enumerate(_sorted_kahn(dag))
        }

    @given(shuffled_dags(), st.data())
    def test_cycle_raises_at_construction(self, dag, data):
        succ = descendants_map(dag)
        closing = [(v, u) for u in dag.node_names for v in sorted(succ[u])]
        if not closing:
            return
        back = data.draw(st.sampled_from(closing))
        with pytest.raises(CycleError):
            DAG(dag.nodes, list(dag.edges) + [back])

    @given(shuffled_dags(min_nodes=2))
    def test_memo_entries_do_not_leak(self, dag):
        twin = DAG(dag.nodes, dag.edges)
        fingerprint = dag_fingerprint(twin)
        twin_hash = hash(twin)
        payload = dag_to_dict(twin)
        del twin.__dict__["_content_fingerprint"], twin.__dict__["_hash"]
        longest_path_length(dag)
        mu_array(dag, 3)
        dag_fingerprint(dag)
        assert all(key in dag.__dict__ for key in _MEMO_KEYS)
        assert not any(key in twin.__dict__ for key in _MEMO_KEYS)
        assert dag == twin and twin == dag
        assert hash(dag) == twin_hash
        assert dag_to_dict(dag) == payload
        assert dag_fingerprint(dag) == fingerprint == dag_fingerprint(twin)

    @given(shuffled_dags())
    def test_pickle_round_trip(self, dag):
        longest_path_length(dag)
        dag_fingerprint(dag)
        for original in (dag, DAG(dag.nodes, dag.edges)):
            clone = pickle.loads(pickle.dumps(original))
            assert clone == original
            assert hash(clone) == hash(original)
            assert clone.topological_order == original.topological_order
            assert longest_path_length(clone) == longest_path_length(original)
