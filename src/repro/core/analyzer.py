"""One-call schedulability analysis of a DAG task-set.

Wires together the blocking bounds, the interference terms and the RTA
fixpoint into the three analyses the paper evaluates (Section VI):

* ``FP-ideal`` — Eq. 1, lower-priority interference discarded;
* ``LP-max``  — Eq. 4 with Δ from Eq. 5;
* ``LP-ILP``  — Eq. 4 with Δ from Eq. 8.

:func:`analyze_taskset` runs one method; :func:`analyze_taskset_multi`
evaluates several methods in a single pass, sharing the validation and
the LP-ILP μ cache and (by default) exploiting the dominance ordering
``LP-max ⊆ LP-ILP ⊆ FP-ideal`` to skip analyses whose verdict is
already decided; :func:`analyze_taskset_multi_batch` does the same for
a batch of task-sets — the fast path of the experiment sweeps.

There is one flow: the verdict cache and the pruning order live in
:func:`analyze_taskset_multi_batch` and :func:`_compute_multi_batch`,
and both single-task-set entries are batch-of-one calls into them.
:func:`~repro.core.rta.response_time_bounds_batch` runs a batch of one
through the scalar fixpoint, so a single task-set pays nothing for the
batch form.

Example
-------
>>> from repro import analyze_taskset, AnalysisMethod
>>> result = analyze_taskset(taskset, m=4, method=AnalysisMethod.LP_ILP)
>>> result.schedulable, result.responses          # doctest: +SKIP
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

from repro.exceptions import AnalysisError
from repro.core.blocking import RhoSolver, lp_ilp_deltas, lp_max_deltas
from repro.core.interference import InterferenceMemo
from repro.core.results import MultiAnalysis, TaskAnalysis, TasksetAnalysis
from repro.core.rta import response_time_bounds_batch
from repro.core.workload import MuMethod
from repro.model.taskset import TaskSet
from repro.model.validation import validate_taskset_for_analysis


class AnalysisMethod(Enum):
    """The three analyses compared in the paper's evaluation."""

    FP_IDEAL = "FP-ideal"
    LP_MAX = "LP-max"
    LP_ILP = "LP-ILP"


def _coerce_method(method: AnalysisMethod | str) -> AnalysisMethod:
    if isinstance(method, AnalysisMethod):
        return method
    try:
        return AnalysisMethod(method)
    except ValueError:
        valid = [m.value for m in AnalysisMethod]
        raise AnalysisError(f"unknown method {method!r}; choose from {valid}") from None


def analyze_taskset(
    taskset: TaskSet,
    m: int,
    method: AnalysisMethod = AnalysisMethod.LP_ILP,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
) -> TasksetAnalysis:
    """Analyse ``taskset`` on ``m`` cores with the chosen method.

    Parameters
    ----------
    taskset:
        The DAG task-set (tasks carry unique priorities).
    m:
        Number of identical cores.
    method:
        :class:`AnalysisMethod` member (or its string value).
    mu_method / rho_solver:
        Solver selection for the LP-ILP blocking terms; ignored by the
        other methods. Defaults are the fast exact combinatorial
        solvers; ``"ilp"`` variants run the paper's formulations on the
        built-in branch-and-bound solver.

    Returns
    -------
    TasksetAnalysis
        Per-task response-time bounds and the task-set verdict.
    """
    method = _coerce_method(method)
    validate_taskset_for_analysis(taskset, m)
    return _compute_multi_batch(
        [taskset], m, (method,), mu_method, rho_solver, False
    )[0].analyses[0]


def _pruned_unschedulable(method: AnalysisMethod, taskset: TaskSet, m: int) -> TasksetAnalysis:
    """Verdict derived by dominance: unschedulable, no task analysed."""
    tasks = tuple(
        TaskAnalysis(
            name=task.name,
            schedulable=False,
            response=math.inf,
            iterations=0,
            analyzed=False,
        )
        for task in taskset
    )
    return TasksetAnalysis(method.value, m, tasks)


def analyze_taskset_multi(
    taskset: TaskSet,
    m: int,
    methods: Sequence[AnalysisMethod | str] | None = None,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
    dominance_pruning: bool = True,
    cache=None,
) -> MultiAnalysis:
    """Analyse ``taskset`` with several methods in a single pass.

    Compared to calling :func:`analyze_taskset` once per method this

    * validates the task-set once,
    * shares one LP-ILP μ cache across methods, and
    * (with ``dominance_pruning``, the default) exploits the paper's
      dominance ordering ``LP-max ⊆ LP-ILP ⊆ FP-ideal`` of the three
      sufficient tests to skip analyses whose verdict is already
      decided:

      - FP-ideal unschedulable ⟹ both LP methods unschedulable (Eq. 4
        only adds the non-negative ``I^lp_k`` term to Eq. 1, and
        ``W_i(L)`` is non-decreasing in the hp response bounds);
      - LP-max schedulable ⟹ LP-ILP schedulable (Eq. 5 dominates Eq. 8
        pointwise: every execution scenario picks at most ``c_i`` NPRs
        per task, all present in the LP-max pool).

      Pruning preserves every task-set *verdict* exactly but not every
      per-task detail: a pruned-unschedulable method reports all tasks
      with ``analyzed=False``, and an LP-ILP verdict settled by LP-max
      reuses LP-max's response bounds (valid for LP-ILP, since its Δ
      terms are never larger, just not the tightest).  Pass
      ``dominance_pruning=False`` for results bit-identical to separate
      :func:`analyze_taskset` calls.

    Parameters
    ----------
    taskset / m / mu_method / rho_solver:
        As in :func:`analyze_taskset`.
    methods:
        Methods to evaluate (members or string values); duplicates are
        dropped.  ``None`` runs all three.
    dominance_pruning:
        Skip analyses whose verdict follows from a dominating method.
        The pruned path also warm-starts the LP fixpoints from the
        FP-ideal converged responses (sound lower bounds: Eq. 4 only
        adds non-negative terms to Eq. 1), which preserves every
        response bound and verdict bit-for-bit and shrinks only the
        diagnostic ``iterations``/``preemptions`` counters of the LP
        results — the same class of detail pruning itself already
        substitutes.
    cache:
        Optional :class:`~repro.engine.vcache.VerdictCache` (duck-typed:
        ``key_for``/``get``/``put``).  On a hit the stored
        :class:`MultiAnalysis` is returned without analysing; on a miss
        the fresh result is stored when the cache is writable.  The key
        covers the task-set content and every argument of this function,
        so a cached verdict is only ever replayed for an identical
        request.

    Returns
    -------
    MultiAnalysis
        One :class:`TasksetAnalysis` per requested method, in request
        order.
    """
    return analyze_taskset_multi_batch(
        [taskset], m, methods, mu_method, rho_solver, dominance_pruning, cache
    )[0]


def _compute_multi_batch(
    tasksets: Sequence[TaskSet],
    m: int,
    wanted: Sequence[AnalysisMethod],
    mu_method: MuMethod,
    rho_solver: RhoSolver,
    dominance_pruning: bool,
) -> list[MultiAnalysis]:
    """The multi-method pruning flow, computed for a whole batch of
    (already validated) task-sets.

    Each phase (FP-ideal, LP-max, LP-ILP) runs as one
    :func:`~repro.core.rta.response_time_bounds_batch` call over the
    lanes that still need it, so every lane sees the same sequence of
    methods, warm starts, provider invocations and memo state as it
    would analysed alone — results do not depend on the batch.  With
    ``dominance_pruning=False`` each wanted method runs in full on a
    fresh μ cache and memo per lane, which is :func:`analyze_taskset`.
    """
    n = len(tasksets)
    if n == 0:
        return []
    memos = [InterferenceMemo(ts, m) for ts in tasksets]
    mu_caches: list[dict[str, list[float]]] = [{} for _ in range(n)]
    computed: list[dict[AnalysisMethod, TasksetAnalysis]] = [{} for _ in range(n)]

    def provider_for(method: AnalysisMethod, i: int):
        taskset = tasksets[i]
        if method is AnalysisMethod.LP_MAX:
            def provider(task, taskset=taskset):
                return lp_max_deltas(taskset.lp(task.name), m)
        else:
            mu_cache = mu_caches[i]
            def provider(task, taskset=taskset, mu_cache=mu_cache):
                return lp_ilp_deltas(
                    taskset.lp(task.name),
                    m,
                    mu_method=mu_method,
                    rho_solver=rho_solver,
                    mu_cache=mu_cache,
                )
        return provider

    def run(
        method: AnalysisMethod,
        indices: Sequence[int],
        warm_by_index: dict[int, dict[str, float]] | None = None,
    ) -> None:
        subsets = [tasksets[i] for i in indices]
        submemos = [memos[i] for i in indices]
        if method is AnalysisMethod.FP_IDEAL:
            tasks_lists = response_time_bounds_batch(subsets, m, memos=submemos)
        else:
            tasks_lists = response_time_bounds_batch(
                subsets,
                m,
                delta_providers=[provider_for(method, i) for i in indices],
                limited_preemption=True,
                warm_starts_list=[
                    warm_by_index.get(i) if warm_by_index else None
                    for i in indices
                ],
                memos=submemos,
            )
        for i, tasks in zip(indices, tasks_lists):
            computed[i][method] = TasksetAnalysis(method.value, m, tuple(tasks))

    all_lanes = list(range(n))
    if not dominance_pruning:
        for method in wanted:
            run(method, all_lanes)
    else:
        lp_wanted = [mm for mm in wanted if mm is not AnalysisMethod.FP_IDEAL]
        run(AnalysisMethod.FP_IDEAL, all_lanes)
        if lp_wanted:
            survivors: list[int] = []
            warm_by_index: dict[int, dict[str, float]] = {}
            for i in all_lanes:
                fp = computed[i][AnalysisMethod.FP_IDEAL]
                if not fp.schedulable:
                    for method in lp_wanted:
                        computed[i][method] = _pruned_unschedulable(
                            method, tasksets[i], m
                        )
                    continue
                survivors.append(i)
                warm_by_index[i] = {
                    t.name: t.response for t in fp.tasks if t.schedulable
                }
            if survivors:
                run(AnalysisMethod.LP_MAX, survivors, warm_by_index)
                if AnalysisMethod.LP_ILP in lp_wanted:
                    ilp_lanes = []
                    for i in survivors:
                        lp_max = computed[i][AnalysisMethod.LP_MAX]
                        if lp_max.schedulable:
                            computed[i][AnalysisMethod.LP_ILP] = TasksetAnalysis(
                                AnalysisMethod.LP_ILP.value, m, lp_max.tasks
                            )
                        else:
                            ilp_lanes.append(i)
                    if ilp_lanes:
                        run(AnalysisMethod.LP_ILP, ilp_lanes, warm_by_index)
    return [
        MultiAnalysis(m=m, analyses=tuple(computed[i][mm] for mm in wanted))
        for i in all_lanes
    ]


def analyze_taskset_multi_batch(
    tasksets: Sequence[TaskSet],
    m: int,
    methods: Sequence[AnalysisMethod | str] | None = None,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
    dominance_pruning: bool = True,
    cache=None,
) -> list[MultiAnalysis]:
    """Analyse a batch of task-sets, bit-identical to per-item calls.

    Semantically ``[analyze_taskset_multi(ts, m, ...) for ts in
    tasksets]``, but the RTA fixpoints of the whole batch iterate in
    lock-step so each step's interference terms are evaluated by one
    cross-lane numpy kernel (:class:`~repro.core.interference.`
    ``InterferenceLanes``) instead of per-task-set numpy calls — the
    sweep engine's chunk hot path.  A batch of one (and every phase
    that one lane reaches alone) runs the scalar fixpoint.

    The verdict-cache protocol mirrors the serial loop's counters:
    first occurrences of each key are looked up (and computed/stored on
    miss) before duplicate occurrences are looked up, so per-chunk
    hit/miss totals equal the per-item loop's in both ``read`` and
    ``readwrite`` modes.  Returns one :class:`MultiAnalysis` per input,
    in input order.
    """
    if methods is None:
        methods = tuple(AnalysisMethod)
    wanted: list[AnalysisMethod] = []
    for method in methods:
        coerced = _coerce_method(method)
        if coerced not in wanted:
            wanted.append(coerced)
    if not wanted:
        raise AnalysisError("need at least one analysis method")
    n = len(tasksets)
    for taskset in tasksets:
        validate_taskset_for_analysis(taskset, m)

    results: list[MultiAnalysis | None] = [None] * n
    compute_lanes: list[int] = []
    keys: list[str | None] = [None] * n
    first_for_key: dict[str, int] = {}
    deferred: list[int] = []
    if cache is None:
        compute_lanes = list(range(n))
    else:
        method_values = tuple(mm.value for mm in wanted)
        for i, taskset in enumerate(tasksets):
            key = cache.key_for(
                taskset, m, method_values, mu_method, rho_solver,
                dominance_pruning,
            )
            keys[i] = key
            if key in first_for_key:
                # Duplicate within the batch: the serial loop would
                # look it up only after computing and storing the first
                # occurrence, so defer the lookup to keep hit/miss
                # counts identical.
                deferred.append(i)
                continue
            first_for_key[key] = i
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
            else:
                compute_lanes.append(i)

    computed = _compute_multi_batch(
        [tasksets[i] for i in compute_lanes],
        m, wanted, mu_method, rho_solver, dominance_pruning,
    )
    for i, multi in zip(compute_lanes, computed):
        results[i] = multi
        if cache is not None:
            cache.put(keys[i], multi)

    for i in deferred:
        hit = cache.get(keys[i])
        if hit is None:
            # Read-only cache: the store above was a no-op, exactly as
            # in the serial loop, which would recompute the identical
            # verdict here.  Reuse the first occurrence's result (same
            # key ⟹ same inputs) and issue the same no-op store.
            hit = results[first_for_key[keys[i]]]
            cache.put(keys[i], hit)
        results[i] = hit
    return results


def is_schedulable(
    taskset: TaskSet,
    m: int,
    method: AnalysisMethod = AnalysisMethod.LP_ILP,
    **kwargs,
) -> bool:
    """Boolean shortcut for :func:`analyze_taskset`."""
    return analyze_taskset(taskset, m, method, **kwargs).schedulable
