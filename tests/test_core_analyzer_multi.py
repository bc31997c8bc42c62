"""Unit tests for the one-pass multi-method analyzer."""

import numpy as np
import pytest

from repro.core.analyzer import (
    AnalysisMethod,
    analyze_taskset,
    analyze_taskset_multi,
)
from repro.core.blocking import lp_ilp_deltas, lp_max_deltas
from repro.core.results import MultiAnalysis, TasksetAnalysis
from repro.core.rta import response_time_bounds
from repro.exceptions import AnalysisError
from repro.generator.profiles import GROUP1, GROUP2
from repro.generator.taskset_gen import generate_taskset

ALL = (AnalysisMethod.FP_IDEAL, AnalysisMethod.LP_ILP, AnalysisMethod.LP_MAX)


def _corpus(profile, utilizations, seeds=range(6)):
    tasksets = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for u in utilizations:
            tasksets.append(generate_taskset(rng, u, profile))
    return tasksets


def _reference(taskset, m, method, mu_method="search", rho_solver="assignment"):
    """One method straight through the scalar RTA kernel: no pruning
    flow, no batch driver, a fresh μ cache — the per-method analysis the
    analyzer's shared flow must reproduce."""
    if method is AnalysisMethod.FP_IDEAL:
        return TasksetAnalysis(method.value, m, tuple(response_time_bounds(taskset, m)))
    mu_cache = {}
    if method is AnalysisMethod.LP_MAX:
        def provider(task):
            return lp_max_deltas(taskset.lp(task.name), m)
    else:
        def provider(task):
            return lp_ilp_deltas(
                taskset.lp(task.name), m, mu_method=mu_method,
                rho_solver=rho_solver, mu_cache=mu_cache,
            )
    tasks = response_time_bounds(taskset, m, provider, limited_preemption=True)
    return TasksetAnalysis(method.value, m, tuple(tasks))


class TestMatchesReference:
    @pytest.mark.parametrize("profile", [GROUP1, GROUP2], ids=["group1", "group2"])
    def test_every_method_on_generated_corpora(self, profile):
        for taskset in _corpus(profile, (1.0, 2.0, 3.0, 3.5)):
            for method in ALL:
                assert analyze_taskset(taskset, 4, method) == _reference(
                    taskset, 4, method
                )

    # One schedulable pair and one three-task set that fails at the
    # lowest priority, both with non-zero LP-ILP blocking terms.
    @pytest.mark.parametrize("seed,utilization", [(1, 1.0), (2, 1.5)])
    def test_ilp_solvers(self, seed, utilization):
        taskset = generate_taskset(np.random.default_rng(seed), utilization, GROUP1)
        for method in ALL:
            got = analyze_taskset(
                taskset, 2, method, mu_method="ilp", rho_solver="ilp"
            )
            assert got == _reference(
                taskset, 2, method, mu_method="ilp", rho_solver="ilp"
            )


class TestMultiMatchesSeparateCalls:
    @pytest.mark.parametrize("profile", [GROUP1, GROUP2], ids=["group1", "group2"])
    def test_verdicts_identical_with_pruning(self, profile):
        """The dominance-pruned fast path preserves every verdict."""
        for taskset in _corpus(profile, (1.0, 2.0, 3.0, 3.5)):
            multi = analyze_taskset_multi(taskset, 4, ALL)
            separate = {
                method.value: analyze_taskset(taskset, 4, method).schedulable
                for method in ALL
            }
            assert multi.schedulable == separate

    def test_exact_results_without_pruning(self):
        """pruning off: per-task results bit-identical to separate calls."""
        for taskset in _corpus(GROUP1, (1.5, 3.0), seeds=range(3)):
            multi = analyze_taskset_multi(taskset, 4, ALL, dominance_pruning=False)
            for method, analysis in zip(ALL, multi):
                assert analysis == analyze_taskset(taskset, 4, method)
                assert analysis == _reference(taskset, 4, method)

    def test_pruned_unschedulable_reports_unanalyzed_tasks(self):
        rng = np.random.default_rng(0)
        # Far beyond m: FP-ideal certainly fails, LP methods get pruned.
        taskset = generate_taskset(rng, 7.9, GROUP1)
        multi = analyze_taskset_multi(taskset, 2, ALL)
        assert not multi.analysis("FP-ideal").schedulable
        for method in ("LP-ILP", "LP-max"):
            pruned = multi.analysis(method)
            assert not pruned.schedulable
            assert all(not t.analyzed for t in pruned.tasks)


class TestMultiApi:
    @pytest.fixture(scope="class")
    def taskset(self):
        return generate_taskset(np.random.default_rng(1), 1.0, GROUP1)

    def test_default_runs_all_methods(self, taskset):
        multi = analyze_taskset_multi(taskset, 2)
        assert sorted(multi.methods) == ["FP-ideal", "LP-ILP", "LP-max"]

    def test_request_order_preserved_and_duplicates_dropped(self, taskset):
        multi = analyze_taskset_multi(
            taskset, 2, ["LP-max", AnalysisMethod.FP_IDEAL, "LP-max"]
        )
        assert multi.methods == ("LP-max", "FP-ideal")

    def test_string_methods_accepted(self, taskset):
        multi = analyze_taskset_multi(taskset, 2, ["LP-ILP"])
        assert isinstance(multi, MultiAnalysis)
        assert isinstance(multi.analysis("LP-ILP"), TasksetAnalysis)

    def test_unknown_method_rejected(self, taskset):
        with pytest.raises(AnalysisError):
            analyze_taskset_multi(taskset, 2, ["EDF"])

    def test_empty_methods_rejected(self, taskset):
        with pytest.raises(AnalysisError):
            analyze_taskset_multi(taskset, 2, [])

    def test_container_protocol(self, taskset):
        multi = analyze_taskset_multi(taskset, 2)
        assert len(multi) == 3
        assert [a.method for a in multi] == list(multi.methods)

    def test_unknown_lookup_raises(self, taskset):
        multi = analyze_taskset_multi(taskset, 2, ["FP-ideal"])
        with pytest.raises(AnalysisError):
            multi.analysis("LP-ILP")

    def test_single_lp_ilp_still_prunable(self, taskset):
        """Requesting only LP-ILP still benefits from (and agrees with)
        the FP-ideal / LP-max pre-filters."""
        multi = analyze_taskset_multi(taskset, 2, [AnalysisMethod.LP_ILP])
        assert multi.methods == ("LP-ILP",)
        direct = analyze_taskset(taskset, 2, AnalysisMethod.LP_ILP)
        assert multi.analysis("LP-ILP").schedulable == direct.schedulable
