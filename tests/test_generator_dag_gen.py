"""Unit tests for :mod:`repro.generator.dag_gen`."""

import numpy as np
import pytest

from repro.generator import DagProfile, random_dag, sequential_dag
from repro.graph import longest_path_nodes, max_parallelism
from repro.model.validation import validate_openmp_style


class TestRandomDag:
    @pytest.mark.parametrize("seed", range(20))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        profile = DagProfile()
        dag = random_dag(rng, profile)
        assert 1 <= len(dag) <= profile.max_nodes
        validate_openmp_style(dag)
        assert len(longest_path_nodes(dag)) <= profile.max_path_nodes
        for node in dag.nodes:
            assert profile.wcet_min <= node.wcet <= profile.wcet_max
            assert float(node.wcet).is_integer()

    def test_root_forks_by_default(self, rng):
        for _ in range(20):
            dag = random_dag(rng, DagProfile())
            assert len(dag) >= 4
            assert len(dag.successors(dag.sources[0])) >= 2

    def test_root_fork_disabled(self):
        rng = np.random.default_rng(0)
        sizes = {len(random_dag(rng, DagProfile(root_forks=False))) for _ in range(50)}
        assert 1 in sizes  # terminal roots appear with p_term = 0.4

    def test_path_bound_respected_tightly(self, rng):
        profile = DagProfile(max_path_nodes=3)
        for _ in range(20):
            dag = random_dag(rng, profile)
            assert len(longest_path_nodes(dag)) <= 3

    def test_node_cap_respected(self, rng):
        profile = DagProfile(max_nodes=10)
        for _ in range(30):
            assert len(random_dag(rng, profile)) <= 10

    def test_parallelism_reachable(self, rng):
        widths = [max_parallelism(random_dag(rng, DagProfile())) for _ in range(30)]
        assert max(widths) >= 3  # npar=6 should produce wide graphs

    def test_deterministic_given_seed(self):
        a = random_dag(np.random.default_rng(7), DagProfile())
        b = random_dag(np.random.default_rng(7), DagProfile())
        assert a == b

    def test_name_prefix(self, rng):
        dag = random_dag(rng, DagProfile(), name_prefix="w")
        assert all(n.startswith("w") for n in dag.node_names)


class TestSequentialDag:
    @pytest.mark.parametrize("seed", range(10))
    def test_is_chain(self, seed):
        rng = np.random.default_rng(seed)
        profile = DagProfile()
        dag = sequential_dag(rng, profile)
        assert profile.seq_min_nodes <= len(dag) <= profile.seq_max_nodes
        assert max_parallelism(dag) == 1
        assert dag.volume == sum(n.wcet for n in dag.nodes)
        assert len(longest_path_nodes(dag)) == len(dag)

    def test_single_node_chain(self):
        rng = np.random.default_rng(0)
        profile = DagProfile(seq_min_nodes=1, seq_max_nodes=1)
        dag = sequential_dag(rng, profile)
        assert len(dag) == 1


class TestDrawStream:
    """The generated corpus is pinned by the generator's draw stream.

    :func:`sequential_dag` draws a chain's WCETs in one batched
    ``rng.integers(..., size=n)`` call; that is only sound while numpy
    gives the same values, and leaves the generator in the same state,
    as ``n`` scalar draws.  The golden task-sets fail loudly if a numpy
    upgrade (or a generator change) ever alters the corpus.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_batched_integers_equal_scalar_draws(self, seed):
        profile = DagProfile()
        low, high = profile.wcet_min, profile.wcet_max + 1
        for n in range(1, 31):
            batched = np.random.default_rng([seed, n])
            scalar = np.random.default_rng([seed, n])
            assert batched.integers(low, high, size=n).tolist() == [
                int(scalar.integers(low, high)) for _ in range(n)
            ]
            # The stream continues identically after the batch.
            assert batched.random() == scalar.random()
            assert batched.integers(2, 7) == scalar.integers(2, 7)

    @staticmethod
    def _canonical(taskset) -> str:
        return "\n".join(
            f"{task.name}|{task.period!r}|"
            + ",".join(f"{node.name}={node.wcet!r}" for node in task.graph.nodes)
            + "|"
            + ",".join(f"{u}>{v}" for u, v in task.graph.edges)
            for task in taskset
        )

    # (kind, item) -> (first task's period, its node WCETs, SHA-256 of
    # every task's period, node WCETs and edges).  The first group-1
    # tasks are chains, so the batched draw is part of what is pinned.
    GOLDEN = {
        ("group1", 0): (
            3152.0,
            [21, 21, 12, 46, 79, 54, 42, 87, 47, 73, 18, 48, 88, 36, 72,
             29, 42, 65, 41, 64, 81, 51, 18, 74, 32, 86, 22, 92, 36, 99],
            "6bbf149bd4db52a978b69b2a68f18d614b7d728db2e1ed6d59ce10142e737b40",
        ),
        ("group1", 1): (
            3432.0,
            [97, 90, 54, 78, 98, 22, 84, 54, 31, 40, 27, 23, 22, 92, 89,
             97, 97, 32, 36, 59, 86, 77, 15, 75, 17, 75, 46, 86, 17],
            "47e29498b07201280d1f3383597317c61f607550f41dfb1e6aa7dc7ea4505889",
        ),
        ("group2", 0): (
            1529.0,
            [98, 46, 79, 47, 36, 29, 42, 65, 41, 64, 81, 74, 32, 99, 18,
             54, 77, 17, 62, 4, 44, 78, 11, 24, 15, 98, 79, 31, 84],
            "45ff055b26007f0655814a5dacb1bd74035c5d4aaeb3c18e3dba9ef66d41d8c6",
        ),
        ("group2", 1): (
            1489.0,
            [96, 78, 54, 40, 27, 23, 22, 97, 32, 36, 59, 86, 77, 15, 75,
             17, 17, 8, 83, 69, 47, 23, 94, 21, 62, 34, 62, 87, 23, 25],
            "60ec783f56bf34736e096c692f3c566c66be40a0faf1dff95e935962d339de41",
        ),
    }

    @pytest.mark.parametrize("kind, item", sorted(GOLDEN))
    def test_first_sweep_tasksets_are_pinned(self, kind, item):
        import hashlib

        from repro.experiments.figure2 import figure2_spec
        from repro.experiments.group2 import group2_spec
        from repro.generator.taskset_gen import generate_taskset

        make_spec = figure2_spec if kind == "group1" else group2_spec
        spec = make_spec(8, n_tasksets=60, seed=2016)
        point, index = divmod(item, spec.n_tasksets)
        taskset = generate_taskset(
            spec.taskset_rng(point, index), spec.utilizations[point], spec.profile
        )
        period, wcets, digest = self.GOLDEN[kind, item]
        first = taskset.tasks[0]
        assert first.period == period
        assert [node.wcet for node in first.graph.nodes] == wcets
        canonical = self._canonical(taskset).encode("utf-8")
        assert hashlib.sha256(canonical).hexdigest() == digest
