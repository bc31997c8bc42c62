"""Batched RTA kernel pinning: batch == per-item, bit for bit.

The batched analyzer (:func:`repro.core.analyzer.analyze_taskset_multi_batch`,
driven by :func:`repro.core.rta.response_time_bounds_batch` and the
cross-lane :class:`repro.core.interference.InterferenceLanes` kernel) is
an *execution strategy*, not a different analysis: every response bound,
iteration counter, preemption count and pruning decision must equal the
per-item analyzer's exactly, and its verdict-cache traffic must produce
identical hit/miss counts in both cache modes.
"""

import numpy as np
import pytest

from repro.core.analyzer import (
    AnalysisMethod,
    analyze_taskset_multi,
    analyze_taskset_multi_batch,
)
import repro.core.rta as rta
from repro.core.blocking import lp_max_deltas
from repro.core.interference import InterferenceLanes, InterferenceMemo
from repro.core.rta import response_time_bounds, response_time_bounds_batch
from repro.engine.vcache import VerdictCache
from repro.exceptions import AnalysisError
from repro.generator.profiles import GROUP1, GROUP2
from repro.generator.taskset_gen import generate_taskset

ALL_METHODS = tuple(AnalysisMethod)


def _corpus(profile, utilization, count, seed=2016):
    return [
        generate_taskset(np.random.default_rng(seed + i), utilization, profile)
        for i in range(count)
    ]


class TestInterferenceLanes:
    def test_matches_per_lane_memo_on_every_width(self):
        # Narrow prefixes delegate to the lane memo; wide prefixes run
        # the 2-D kernel.  Both must equal a fresh memo's answer.
        tasksets = _corpus(GROUP2, 6.0, 4)
        m = 8
        memos = [InterferenceMemo(ts, m) for ts in tasksets]
        lanes = InterferenceLanes(memos)
        for lane, taskset in enumerate(tasksets):
            responses = [
                t.longest_path + (t.volume - t.longest_path) / m
                for t in taskset.tasks
            ]
            for rank, response in enumerate(responses):
                lanes.set_response(lane, rank, response)
        for lane, taskset in enumerate(tasksets):
            responses = [
                t.longest_path + (t.volume - t.longest_path) / m
                for t in taskset.tasks
            ]
            n = len(taskset.tasks)
            for count in range(n + 1):
                window = 10.0 + 3.7 * count
                reference = InterferenceMemo(taskset, m).interference(
                    count, window, responses[:count]
                )
                [value] = lanes.interference_many([(lane, count, window)])
                assert value == reference

    def test_mixed_lane_queries_in_one_kernel(self):
        tasksets = _corpus(GROUP2, 6.0, 6)
        m = 8
        memos = [InterferenceMemo(ts, m) for ts in tasksets]
        lanes = InterferenceLanes(memos)
        queries = []
        expected = []
        for lane, taskset in enumerate(tasksets):
            responses = [
                t.longest_path + (t.volume - t.longest_path) / m
                for t in taskset.tasks
            ]
            for rank, response in enumerate(responses):
                lanes.set_response(lane, rank, response)
            count = len(taskset.tasks) - (lane % 3)
            window = 25.0 + lane * 1.3
            queries.append((lane, count, window))
            expected.append(
                InterferenceMemo(taskset, m).interference(
                    count, window, responses[:count]
                )
            )
        assert lanes.interference_many(queries) == expected

    def test_rejects_mixed_core_counts_and_empty_batches(self):
        taskset = _corpus(GROUP1, 1.2, 1)[0]
        with pytest.raises(AnalysisError):
            InterferenceLanes([])
        with pytest.raises(AnalysisError):
            InterferenceLanes(
                [InterferenceMemo(taskset, 2), InterferenceMemo(taskset, 4)]
            )


RTA_CASES = pytest.mark.parametrize("m,profile,utilization", [
    (2, GROUP1, 1.2),
    (4, GROUP1, 2.5),
    (8, GROUP2, 5.0),
    (8, GROUP2, 6.5),
])


class TestResponseTimeBoundsBatch:
    @RTA_CASES
    def test_fp_ideal_matches_serial(self, monkeypatch, m, profile, utilization):
        built = []

        class CountingLanes(InterferenceLanes):
            def __init__(self, memos):
                built.append(len(memos))
                super().__init__(memos)

        monkeypatch.setattr(rta, "InterferenceLanes", CountingLanes)
        tasksets = _corpus(profile, utilization, 8)
        batch = response_time_bounds_batch(tasksets, m)
        serial = [response_time_bounds(ts, m) for ts in tasksets]
        assert batch == serial
        # Two or more lanes run lock-step over one shared evaluator.
        assert built == [8]
        response_time_bounds_batch(tasksets[:2], m)
        assert built == [8, 2]

    @RTA_CASES
    def test_single_lane_runs_scalar_kernel(
        self, monkeypatch, m, profile, utilization
    ):
        def refuse(memos):
            raise AssertionError("a batch of one built InterferenceLanes")

        monkeypatch.setattr(rta, "InterferenceLanes", refuse)
        for taskset in _corpus(profile, utilization, 4):
            batch_memo = InterferenceMemo(taskset, m)
            scalar_memo = InterferenceMemo(taskset, m)
            [fp] = response_time_bounds_batch([taskset], m, memos=[batch_memo])
            assert fp == response_time_bounds(taskset, m, memo=scalar_memo)

            # LP-max as the analyzer runs it: warm-started from FP-ideal,
            # on the memo the FP-ideal pass already filled.
            warm = {t.name: t.response for t in fp if t.schedulable}

            def provider(task, taskset=taskset):
                return lp_max_deltas(taskset.lp(task.name), m)

            [lp] = response_time_bounds_batch(
                [taskset], m, [provider], True,
                warm_starts_list=[warm], memos=[batch_memo],
            )
            assert lp == response_time_bounds(
                taskset, m, provider, True, warm_starts=warm, memo=scalar_memo
            )

    def test_empty_batch(self):
        assert response_time_bounds_batch([], 4) == []

    def test_argument_validation_matches_serial(self):
        tasksets = _corpus(GROUP1, 1.2, 2)
        with pytest.raises(AnalysisError):
            response_time_bounds_batch(tasksets, 0)
        with pytest.raises(AnalysisError):
            response_time_bounds_batch(tasksets, 2, limited_preemption=True)
        with pytest.raises(AnalysisError):
            response_time_bounds_batch(tasksets, 2, delta_providers=[None])


class TestAnalyzeTasksetMultiBatch:
    @pytest.mark.parametrize("dominance_pruning", [True, False])
    @pytest.mark.parametrize("methods", [
        ALL_METHODS,
        (AnalysisMethod.FP_IDEAL,),
        (AnalysisMethod.LP_MAX,),
        (AnalysisMethod.LP_ILP,),
        (AnalysisMethod.LP_ILP, AnalysisMethod.FP_IDEAL),
    ])
    def test_batch_equals_per_item(self, methods, dominance_pruning):
        # A borderline-utilisation mix: some task-sets schedulable by
        # every method, some pruned FP-unschedulable, some split between
        # LP-max and LP-ILP — every branch of the pruning flow.
        tasksets = _corpus(GROUP1, 1.1, 4, seed=7) + _corpus(
            GROUP2, 4.5, 4, seed=11
        )
        for m in (2, 4):
            batch = analyze_taskset_multi_batch(
                tasksets, m, methods, dominance_pruning=dominance_pruning
            )
            serial = [
                analyze_taskset_multi(
                    ts, m, methods, dominance_pruning=dominance_pruning
                )
                for ts in tasksets
            ]
            assert batch == serial

    def test_single_item_batch_degenerates(self):
        [taskset] = _corpus(GROUP1, 1.2, 1)
        assert analyze_taskset_multi_batch([taskset], 2) == [
            analyze_taskset_multi(taskset, 2)
        ]
        assert analyze_taskset_multi_batch([], 2) == []

    def test_wide_corpus_matches_on_all_methods(self):
        # The shape the batched kernel exists for: wide m=8 group-2
        # task-sets whose low-priority ranks cross the vector threshold.
        tasksets = _corpus(GROUP2, 6.0, 6)
        batch = analyze_taskset_multi_batch(tasksets, 8)
        serial = [analyze_taskset_multi(ts, 8) for ts in tasksets]
        assert batch == serial


class _CountingCache:
    """Duck-typed cache wrapper counting hits/misses like _CacheSession."""

    def __init__(self, cache):
        self._cache = cache
        self.hits = 0
        self.misses = 0

    def key_for(self, *args, **kwargs):
        return self._cache.key_for(*args, **kwargs)

    def get(self, key):
        verdict = self._cache.get(key)
        if verdict is None:
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def put(self, key, verdict):
        self._cache.put(key, verdict)


class TestBatchCacheProtocol:
    def _duplicate_heavy(self):
        # Three distinct task-sets, each appearing twice in the batch
        # (identical generator draws ⟹ identical fingerprints).
        base = _corpus(GROUP1, 1.2, 3)
        dupes = _corpus(GROUP1, 1.2, 3)
        return [base[0], dupes[0], base[1], base[2], dupes[1], dupes[2]]

    def test_readwrite_counters_match_serial_loop(self, tmp_path):
        tasksets = self._duplicate_heavy()
        with VerdictCache(tmp_path / "serial", mode="readwrite") as vc:
            serial_cache = _CountingCache(vc)
            serial = [
                analyze_taskset_multi(ts, 2, cache=serial_cache)
                for ts in tasksets
            ]
        with VerdictCache(tmp_path / "batch", mode="readwrite") as vc:
            batch_cache = _CountingCache(vc)
            batch = analyze_taskset_multi_batch(tasksets, 2, cache=batch_cache)
        assert batch == serial
        assert (batch_cache.hits, batch_cache.misses) == (
            serial_cache.hits, serial_cache.misses,
        )
        assert (batch_cache.hits, batch_cache.misses) == (3, 3)

    def test_read_mode_counters_match_serial_loop(self, tmp_path):
        tasksets = self._duplicate_heavy()
        (tmp_path / "empty").mkdir()
        reader = VerdictCache(tmp_path / "empty", mode="read")
        serial_cache = _CountingCache(reader)
        serial = [
            analyze_taskset_multi(ts, 2, cache=serial_cache)
            for ts in tasksets
        ]
        batch_cache = _CountingCache(VerdictCache(tmp_path / "empty", mode="read"))
        batch = analyze_taskset_multi_batch(tasksets, 2, cache=batch_cache)
        assert batch == serial
        assert (batch_cache.hits, batch_cache.misses) == (
            serial_cache.hits, serial_cache.misses,
        )
        assert (batch_cache.hits, batch_cache.misses) == (0, 6)

    def test_warm_cache_serves_whole_batch(self, tmp_path):
        tasksets = self._duplicate_heavy()
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            cold = analyze_taskset_multi_batch(tasksets, 2, cache=writer)
        reader = _CountingCache(VerdictCache(tmp_path / "c", mode="read"))
        warm = analyze_taskset_multi_batch(tasksets, 2, cache=reader)
        assert warm == cold
        assert (reader.hits, reader.misses) == (6, 0)
