"""Unit tests for :mod:`repro.experiments.splitsweep`."""

import pytest

from repro.engine.registry import merge_artifacts
from repro.engine.shard import ShardSpec, load_shard
from repro.exceptions import AnalysisError, ShardError
from repro.experiments.splitsweep import (
    _run_split_sweep,
    merge_split_shards,
    run_split_sweep,
    split_taskset,
)
from repro.model import DAGTask, DagBuilder, TaskSet


@pytest.fixture
def taskset(diamond):
    return TaskSet([DAGTask("t", diamond, period=60.0, priority=0)])


class TestSplitTaskset:
    def test_threshold_applied(self, taskset):
        split = split_taskset(taskset, 1.0)
        assert all(
            n.wcet <= 1.0 + 1e-9 for t in split for n in t.graph.nodes
        )

    def test_overhead_inflates_volume(self, taskset):
        base = split_taskset(taskset, 1.0)
        inflated = split_taskset(taskset, 1.0, overhead=0.5)
        assert inflated.total_utilization > base.total_utilization

    def test_bad_threshold(self, taskset):
        with pytest.raises(AnalysisError):
            split_taskset(taskset, 0.0)
        with pytest.raises(AnalysisError):
            split_taskset(taskset, float("inf"))


class TestSweep:
    def test_points_structure(self):
        points = run_split_sweep(
            m=2, utilization=1.0, thresholds=[200.0, 50.0],
            n_tasksets=5, seed=3,
        )
        assert [p.threshold for p in points] == [200.0, 50.0]
        for p in points:
            assert 0.0 <= p.ratio <= 1.0
            assert p.mean_q >= 0.0
            assert p.mean_utilization >= 1.0 - 1e-9

    def test_q_grows_as_threshold_shrinks(self):
        points = run_split_sweep(
            m=2, utilization=1.0, thresholds=[200.0, 10.0],
            n_tasksets=5, seed=3,
        )
        assert points[1].mean_q >= points[0].mean_q

    def test_overhead_free_never_hurts(self):
        """Within the paper's model, finer NPRs cannot reduce acceptance."""
        points = run_split_sweep(
            m=2, utilization=1.0, thresholds=[1000.0, 10.0],
            n_tasksets=8, seed=4, overhead=0.0,
        )
        assert points[1].ratio >= points[0].ratio - 1e-9

    def test_overhead_inflates_mean_utilization(self):
        free = run_split_sweep(
            m=2, utilization=1.0, thresholds=[10.0], n_tasksets=5,
            seed=3, overhead=0.0,
        )
        costly = run_split_sweep(
            m=2, utilization=1.0, thresholds=[10.0], n_tasksets=5,
            seed=3, overhead=2.0,
        )
        assert costly[0].mean_utilization > free[0].mean_utilization

    def test_empty_thresholds_rejected(self):
        with pytest.raises(AnalysisError):
            run_split_sweep(m=2, utilization=1.0, thresholds=[], n_tasksets=3)


class TestMerge:
    @pytest.mark.parametrize("corrupt", [
        lambda record: record["rows"][0].pop(),         # a 3-field row
        lambda record: record.update(rows=None),        # rows: null
    ], ids=["short-row", "null-rows"])
    def test_corrupt_records_raise_shard_error(self, corrupt, tmp_path):
        # In-memory artifacts skip load_shard's row checks, so the merge
        # itself must turn a malformed record into a typed error.
        path = tmp_path / "split.json"
        _run_split_sweep(
            m=2, utilization=1.0, thresholds=[100.0, 20.0], n_tasksets=3,
            seed=3, shard=ShardSpec(0, 1), shard_out=path,
        )
        artifact = load_shard(path)
        record = artifact.records[0]
        record["rows"] = [list(row) for row in record["rows"]]
        corrupt(record)
        with pytest.raises(ShardError, match="corrupt"):
            merge_split_shards([artifact])
        with pytest.raises(ShardError, match="corrupt"):
            merge_artifacts("splitsweep", [artifact])
