"""Property tests of the content-addressed fingerprints.

The verdict cache and the μ memo key on
:func:`~repro.core.fingerprint.taskset_fingerprint`, so the whole cache
contract rests on two properties pinned down here: the fingerprint is
*invariant* under anything the analysis cannot observe (node names,
node/edge insertion order, raw priority values) and *sensitive* to
everything it can (WCETs, edges, periods, deadlines, task names, the
priority order).
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.fingerprint import dag_fingerprint, taskset_fingerprint
from repro.model.dag import DAG
from repro.model.node import Node
from repro.model.task import DAGTask
from repro.model.taskset import TaskSet
from tests.strategies import random_dags


def _rebuild(dag: DAG, mapping, node_order, edge_order) -> DAG:
    """The same graph under new node names and insertion orders."""
    nodes = [Node(mapping[name], dag.wcet(name)) for name in node_order]
    edges = [(mapping[u], mapping[v]) for u, v in edge_order]
    return DAG(nodes, edges)


class TestDagFingerprint:
    @given(data=st.data())
    def test_invariant_under_relabel_and_reorder(self, data):
        dag = data.draw(random_dags(min_nodes=2, max_nodes=8))
        names = list(dag.node_names)
        new_names = data.draw(
            st.permutations([f"r{i}" for i in range(len(names))])
        )
        mapping = dict(zip(names, new_names))
        node_order = data.draw(st.permutations(names))
        edge_order = data.draw(st.permutations(list(dag.edges)))
        twin = _rebuild(dag, mapping, node_order, edge_order)
        assert dag_fingerprint(twin) == dag_fingerprint(dag)

    @given(data=st.data())
    def test_sensitive_to_wcet(self, data):
        dag = data.draw(random_dags(min_nodes=1, max_nodes=6))
        names = list(dag.node_names)
        target = data.draw(st.sampled_from(names))
        nodes = [
            Node(n, dag.wcet(n) + (1.0 if n == target else 0.0))
            for n in names
        ]
        bumped = DAG(nodes, list(dag.edges))
        assert dag_fingerprint(bumped) != dag_fingerprint(dag)

    @given(data=st.data())
    def test_sensitive_to_added_edge(self, data):
        dag = data.draw(random_dags(min_nodes=2, max_nodes=6))
        names = list(dag.node_names)  # "n{i}" with edges i -> j, i < j
        present = set(dag.edges)
        candidates = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
            if (names[i], names[j]) not in present
        ]
        assume(candidates)
        extra = data.draw(st.sampled_from(candidates))
        nodes = [Node(n, dag.wcet(n)) for n in names]
        grown = DAG(nodes, list(dag.edges) + [extra])
        assert dag_fingerprint(grown) != dag_fingerprint(dag)

    def test_sensitive_to_edge_direction(self):
        forward = DAG([Node("a", 1.0), Node("b", 2.0)], [("a", "b")])
        backward = DAG([Node("a", 1.0), Node("b", 2.0)], [("b", "a")])
        assert dag_fingerprint(forward) != dag_fingerprint(backward)

    def test_memoised_on_the_instance(self):
        dag = DAG([Node("a", 1.0), Node("b", 2.0)], [("a", "b")])
        first = dag_fingerprint(dag)
        assert dag.__dict__["_content_fingerprint"] == first
        assert dag_fingerprint(dag) is first


def _tasks(dag: DAG, priorities=(0, 1)) -> list[DAGTask]:
    span = max(sum(dag.wcet(n) for n in dag.node_names), 1.0)
    return [
        DAGTask(f"t{rank}", dag, period=span * 10, priority=priority)
        for rank, priority in enumerate(priorities)
    ]


class TestTasksetFingerprint:
    @given(data=st.data())
    def test_invariant_under_task_order_and_node_relabel(self, data):
        dag = data.draw(random_dags(min_nodes=1, max_nodes=6))
        base = TaskSet(_tasks(dag))
        # Same tasks handed over in the opposite order, over an
        # isomorphic relabelling of the shared graph.
        names = list(dag.node_names)
        mapping = dict(
            zip(names, data.draw(st.permutations(
                [f"x{i}" for i in range(len(names))]
            )))
        )
        twin_graph = _rebuild(
            dag, mapping, data.draw(st.permutations(names)), list(dag.edges)
        )
        span = max(sum(dag.wcet(n) for n in names), 1.0)
        shuffled = TaskSet([
            DAGTask("t1", twin_graph, period=span * 10, priority=1),
            DAGTask("t0", twin_graph, period=span * 10, priority=0),
        ])
        assert taskset_fingerprint(shuffled) == taskset_fingerprint(base)

    def test_priority_values_do_not_matter_but_order_does(self, diamond):
        span = 100.0
        def build(p0, p1):
            return TaskSet([
                DAGTask("t0", diamond, period=span, priority=p0),
                DAGTask("t1", diamond, period=span / 2, priority=p1),
            ])
        assert taskset_fingerprint(build(0, 1)) == taskset_fingerprint(
            build(10, 99)
        )
        # Swapping the *order* moves each task to a different rank.
        assert taskset_fingerprint(build(0, 1)) != taskset_fingerprint(
            build(1, 0)
        )

    def test_sensitive_to_task_name(self, diamond):
        base = TaskSet([DAGTask("t0", diamond, period=100.0, priority=0)])
        renamed = TaskSet([DAGTask("z0", diamond, period=100.0, priority=0)])
        assert taskset_fingerprint(base) != taskset_fingerprint(renamed)

    def test_sensitive_to_period_and_deadline(self, diamond):
        base = TaskSet([DAGTask("t", diamond, period=100.0, priority=0)])
        slower = TaskSet([DAGTask("t", diamond, period=200.0, priority=0)])
        tighter = TaskSet([
            DAGTask("t", diamond, period=100.0, deadline=50.0, priority=0)
        ])
        prints = {
            taskset_fingerprint(base),
            taskset_fingerprint(slower),
            taskset_fingerprint(tighter),
        }
        assert len(prints) == 3


class TestGoldenCacheKeys:
    """Pinned fingerprints: the verdict cache's keys on disk.

    A persisted verdict cache is only valid while these strings hold.
    A change that alters any of them must come with a ``CACHE_VERSION``
    bump in :mod:`repro.engine.vcache` (and new pins here).
    """

    FIGURE1 = {
        "tau1": "ece24a82fa81995a3ba5c2bc7da0d691c971515adedb33e85d050ce7202faf93",
        "tau2": "af78fbc4c581ba1fc022fab5b117f7013e4c8ca995bd1d1b3fc4fb7a9f244150",
        "tau3": "706ee03fbf7ccbfc10d8ff7d1c6e9ec672c3fcd974ace6e9d7062d95986569a6",
        "tau4": "5fe2e7ac9818cce6e605916ce039e39327badae6184859dc6642bf81c6645b9f",
    }
    CHAIN30 = "75f6dc4f09487a26d0e7dc53168a2f5edbc21d54789b1509458fbdba367f8b72"
    FIGURE2_M8 = (
        "f2878bc056542edfe236972d2fa36e02a43d73cafe0cca0b81c1e13e7d25f54e",
        "a4eed04490c887daa44ddca9aa838901705bbd8dab75818a0bd96afab94568e6",
        "4e71e3d1360198220fe7fd74d4c06a490587fda05eb11f5d3f51ab06621c8888",
    )

    def test_figure1_dags(self):
        from repro.experiments import figure1

        for name, expected in self.FIGURE1.items():
            dag = getattr(figure1, f"{name}_dag")()
            assert dag_fingerprint(dag) == expected, name

    def test_thirty_node_chain(self):
        names = [f"c{i}" for i in range(30)]
        chain = DAG(
            [Node(name, float(i % 7 + 1)) for i, name in enumerate(names)],
            list(zip(names, names[1:])),
        )
        assert dag_fingerprint(chain) == self.CHAIN30

    def test_first_figure2_tasksets(self):
        from repro.experiments.figure2 import figure2_spec
        from repro.generator.taskset_gen import generate_taskset

        spec = figure2_spec(8, n_tasksets=60, seed=2016)
        for item, expected in enumerate(self.FIGURE2_M8):
            point, index = divmod(item, spec.n_tasksets)
            taskset = generate_taskset(
                spec.taskset_rng(point, index), spec.utilizations[point], spec.profile
            )
            assert taskset_fingerprint(taskset) == expected, item
