"""Response-time fixpoint iteration (paper Eqs. 1 and 4).

For each task, in decreasing priority order:

    R_k ← L_k + (vol(G_k) − L_k)/m + floor((I^lp_k + I^hp_k)/m)

with ``I^lp_k = 0`` for the fully-preemptive ideal analysis (Eq. 1) and
``I^lp_k = Δ^m_k + p_k(R_k)·Δ^{m−1}_k`` for limited preemption (Eq. 4).
The iteration starts from ``L_k + (vol(G_k) − L_k)/m`` (the
interference-free bound) and is monotonically non-decreasing, because
``W_i``, ``h_k`` and hence both interference terms are non-decreasing in
the window length. It stops at a fixpoint, or is abandoned as
unschedulable as soon as the estimate exceeds ``D_k``.

Hot path
--------
The interference terms are evaluated through an
:class:`~repro.core.interference.InterferenceMemo` — precomputed
per-task constants, a cross-iteration/cross-method ``W_i`` memo and a
numpy batch for wide hp prefixes — instead of the reference functions in
:mod:`repro.core.interference`.  The memo reproduces the reference
float-for-float (asserted by the property suite), so results are
bit-identical to the seed kernel.

:func:`response_time_bounds_batch` is the one driver the analyzer
calls.  Given one task-set it runs the scalar fixpoint of
:func:`response_time_bounds`; given two or more it runs them in
lock-step over one :class:`~repro.core.interference.InterferenceLanes`
kernel.  The lock-step state machine pays for itself only across lanes:
with a single lane it ran the analyzer 2.6–5.7× slower than the scalar
fixpoint (group-1 corpora at m=4/8/16, group-2 at m=16).

``warm_starts`` lets a caller seed the fixpoint of a task with a known
*lower bound* on its response (e.g. the converged FP-ideal response when
analysing the LP methods: Eq. 4 only adds the non-negative ``I^lp_k``
term, so the FP-ideal fixpoint can never exceed the LP one).  Starting
the monotone iteration anywhere between the base window and the least
fixpoint converges to the *same* least fixpoint — only the informational
``iterations`` counter shrinks.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from itertools import compress

import numpy as np

from repro.exceptions import AnalysisError
from repro.core.interference import (
    InterferenceLanes,
    InterferenceMemo,
    lower_priority_interference,
)
from repro.core.results import TaskAnalysis
from repro.model.task import DAGTask
from repro.model.taskset import TaskSet

#: Fixpoint detection tolerance (absolute + relative) for float windows.
_FIXPOINT_TOL = 1e-9

#: Hard cap on fixpoint iterations; hitting it indicates pathological
#: parameters and raises rather than looping forever.
_MAX_ITERATIONS = 100_000

#: Signature of the blocking-term provider: task → (Δ^m, Δ^{m−1}).
DeltaProvider = Callable[[DAGTask], tuple[float, float]]


def _no_blocking(_: DAGTask) -> tuple[float, float]:
    return 0.0, 0.0


def response_time_bounds(
    taskset: TaskSet,
    m: int,
    delta_provider: DeltaProvider | None = None,
    limited_preemption: bool = False,
    *,
    warm_starts: Mapping[str, float] | None = None,
    memo: InterferenceMemo | None = None,
) -> list[TaskAnalysis]:
    """Run the RTA over a whole task-set.

    Parameters
    ----------
    taskset:
        The task-set (priority-ordered by construction).
    m:
        Number of identical cores.
    delta_provider:
        Callable mapping each task to its ``(Δ^m_k, Δ^{m−1}_k)`` pair.
        ``None`` (with ``limited_preemption=False``) analyses the
        FP-ideal case of Eq. 1.
    limited_preemption:
        When True, Eq. 4 is used: the lower-priority interference
        ``Δ^m + p_k·Δ^{m−1}`` enters the fixpoint with ``p_k``
        re-evaluated at the current window.
    warm_starts:
        Optional per-task-name lower bounds on the converged response
        (see module docstring); the fixpoint starts at
        ``max(base, warm_start)``.  Affects only the ``iterations``
        counter, never the response.
    memo:
        Optional shared :class:`InterferenceMemo`; one is created when
        absent.  The multi-method analyzer passes a single memo so
        ``W_i``/``h_k`` evaluations are reused across methods.

    Returns
    -------
    list of TaskAnalysis
        One entry per task in priority order. Once a task is deemed
        unschedulable, lower-priority tasks are reported with
        ``analyzed=False`` (their ``W_i`` inputs are unavailable), and
        the task-set as a whole is unschedulable.

    Raises
    ------
    AnalysisError
        On invalid ``m`` or a missing delta provider in LP mode.
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    if limited_preemption and delta_provider is None:
        raise AnalysisError("limited_preemption=True requires a delta_provider")
    provider = delta_provider or _no_blocking
    if memo is None:
        memo = InterferenceMemo(taskset, m)

    results: list[TaskAnalysis] = []
    responses: list[float] = []
    failed = False
    for rank, task in enumerate(taskset):
        if failed:
            results.append(
                TaskAnalysis(
                    name=task.name,
                    schedulable=False,
                    response=math.inf,
                    iterations=0,
                    analyzed=False,
                )
            )
            continue
        delta_m, delta_m1 = provider(task) if limited_preemption else (0.0, 0.0)
        warm = warm_starts.get(task.name) if warm_starts else None
        analysis = _fixpoint(
            task, rank, m, responses, delta_m, delta_m1, limited_preemption, memo, warm
        )
        results.append(analysis)
        if analysis.schedulable:
            responses.append(analysis.response)
        else:
            failed = True
    return results


class _Lane:
    """One task-set's fixpoint state inside a batched RTA pass."""

    __slots__ = (
        "index", "tasks", "memo", "provider", "warm", "results",
        "responses", "failed", "done", "rank", "task", "base", "window",
        "deadline", "delta_m", "delta_m1", "preemptions",
    )

    def __init__(self, index, tasks, memo, provider, warm) -> None:
        self.index = index
        self.tasks = tasks
        self.memo = memo
        self.provider = provider
        self.warm = warm
        self.results: list[TaskAnalysis] = []
        self.responses: list[float] = []
        self.failed = False
        self.done = False
        self.rank = -1


def response_time_bounds_batch(
    tasksets: Sequence[TaskSet],
    m: int,
    delta_providers: Sequence[DeltaProvider | None] | None = None,
    limited_preemption: bool = False,
    *,
    warm_starts_list: Sequence[Mapping[str, float] | None] | None = None,
    memos: Sequence[InterferenceMemo | None] | None = None,
) -> list[list[TaskAnalysis]]:
    """Run the RTA over a *batch* of task-sets in lock-step.

    Semantically ``[response_time_bounds(ts, m, ...) for ts in
    tasksets]`` with per-task-set providers/warm-starts/memos — and
    bit-identical to it: each task-set ("lane") advances through the
    exact priority loop and fixpoint logic of the serial kernel, but
    every step's interference queries across all active lanes are
    answered by one :class:`~repro.core.interference.InterferenceLanes`
    numpy kernel instead of per-lane evaluations.  Lanes progress
    heterogeneously (a lane whose task converged moves to its next
    rank while others keep iterating), so iteration counters, abandon
    points and warm-start effects match the serial path exactly.

    Parameters mirror :func:`response_time_bounds`, itemised per lane:
    ``delta_providers[i]`` / ``warm_starts_list[i]`` / ``memos[i]``
    apply to ``tasksets[i]`` (``None`` entries take the serial
    defaults).  Returns one ``TaskAnalysis`` list per lane, in input
    order.  A batch of one runs :func:`response_time_bounds` itself.
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    n = len(tasksets)
    providers = list(delta_providers) if delta_providers is not None else [None] * n
    warms = list(warm_starts_list) if warm_starts_list is not None else [None] * n
    lane_memos = list(memos) if memos is not None else [None] * n
    if not (len(providers) == len(warms) == len(lane_memos) == n):
        raise AnalysisError(
            "response_time_bounds_batch: per-lane argument lists must "
            "match the task-set count"
        )
    if limited_preemption and any(p is None for p in providers):
        raise AnalysisError("limited_preemption=True requires a delta_provider")
    if n == 1:
        # One lane has nothing to lock-step with: the scalar fixpoint is
        # the same computation without the per-step array bookkeeping.
        return [
            response_time_bounds(
                tasksets[0], m, providers[0], limited_preemption,
                warm_starts=warms[0], memo=lane_memos[0],
            )
        ]

    lanes: list[_Lane] = []
    for i, taskset in enumerate(tasksets):
        memo = lane_memos[i]
        if memo is None:
            memo = InterferenceMemo(taskset, m)
        lanes.append(
            _Lane(i, list(taskset), memo, providers[i] or _no_blocking, warms[i])
        )
    if not lanes:
        return []
    evaluator = InterferenceLanes([lane.memo for lane in lanes])

    def advance(lane: _Lane) -> None:
        """Enter the lane's next rank (skipping past a failed verdict)."""
        lane.rank += 1
        while lane.rank < len(lane.tasks):
            task = lane.tasks[lane.rank]
            if lane.failed:
                lane.results.append(
                    TaskAnalysis(
                        name=task.name,
                        schedulable=False,
                        response=math.inf,
                        iterations=0,
                        analyzed=False,
                    )
                )
                lane.rank += 1
                continue
            lane.task = task
            lane.delta_m, lane.delta_m1 = (
                lane.provider(task) if limited_preemption else (0.0, 0.0)
            )
            base = task.longest_path + (task.volume - task.longest_path) / m
            window = base
            warm = lane.warm.get(task.name) if lane.warm else None
            if warm is not None and warm > base:
                window = warm
            lane.base = base
            lane.window = window
            lane.deadline = task.deadline
            lane.preemptions = 0
            return
        lane.done = True

    for lane in lanes:
        advance(lane)
    active = [lane for lane in lanes if not lane.done]

    # Lock-step state lives in compact numpy arrays aligned with
    # ``active`` (one slot per active lane, in list order), so a whole
    # step — candidate windows, deadline abandons, fixpoint detection —
    # is a handful of array ops.  Per-lane Python runs only for lanes
    # that *transition* this step (converge, fail, or trip a guard);
    # the rest carry their candidate forward entirely inside numpy.
    # Each transition re-checks its branch with the scalar expressions
    # of the serial kernel on the same float64 values the masks saw, so
    # verdicts, responses and iteration counters stay bit-identical.
    # Iteration counts are derived from step numbers (``step`` minus the
    # step at rank entry) instead of per-lane counters, which keeps the
    # non-transition path free of any per-lane work.
    m_float = float(m)

    def state_arrays(group: Sequence[_Lane], entry_step: int):
        count = len(group)
        return (
            np.fromiter((l.index for l in group), dtype=np.intp, count=count),
            np.fromiter((l.window for l in group), dtype=np.float64, count=count),
            np.fromiter((l.base for l in group), dtype=np.float64, count=count),
            np.fromiter((l.deadline for l in group), dtype=np.float64, count=count),
            np.fromiter((l.rank for l in group), dtype=np.intp, count=count),
            np.full(count, entry_step, dtype=np.int64),
        )

    act, windows, bases, deadlines, ranks, entries = state_arrays(active, 0)
    step = 0
    while active:
        step += 1
        interference = evaluator.interference_rows(act, ranks, windows)
        if limited_preemption:
            totals = interference.tolist()
            window_list = windows.tolist()
            for j, lane in enumerate(active):
                lane.preemptions = lane.memo.preemptions(
                    lane.rank, window_list[j]
                )
                totals[j] += lower_priority_interference(
                    lane.delta_m, lane.delta_m1, lane.preemptions
                )
            interference = np.asarray(totals, dtype=np.float64)
        candidates = bases + np.floor(interference / m_float)
        settled = (
            (candidates > deadlines)
            | (
                np.abs(candidates - windows)
                <= _FIXPOINT_TOL * np.maximum(1.0, np.abs(windows))
            )
            | (candidates < windows)
            | (step - entries >= _MAX_ITERATIONS)
        )
        if not settled.any():
            windows = candidates
            continue
        positions = np.flatnonzero(settled).tolist()
        cand_list = candidates[settled].tolist()
        win_list = windows[settled].tolist()
        entry_list = entries[settled].tolist()
        reentered: list[_Lane] = []
        for pos, candidate, window, entered in zip(
            positions, cand_list, win_list, entry_list
        ):
            lane = active[pos]
            iteration = step - entered
            if candidate > lane.deadline:
                lane.results.append(
                    TaskAnalysis(
                        name=lane.task.name,
                        schedulable=False,
                        response=math.inf,
                        iterations=iteration,
                        delta_m=lane.delta_m,
                        delta_m_minus_1=lane.delta_m1,
                        preemptions=lane.preemptions,
                    )
                )
                lane.failed = True
                advance(lane)
            elif abs(candidate - window) <= _FIXPOINT_TOL * max(
                1.0, abs(window)
            ):
                lane.results.append(
                    TaskAnalysis(
                        name=lane.task.name,
                        schedulable=True,
                        response=candidate,
                        iterations=iteration,
                        delta_m=lane.delta_m,
                        delta_m_minus_1=lane.delta_m1,
                        preemptions=lane.preemptions,
                    )
                )
                lane.responses.append(candidate)
                evaluator.set_response(lane.index, lane.rank, candidate)
                advance(lane)
            elif candidate < window:  # pragma: no cover - monotonicity guard
                raise AnalysisError(
                    f"task {lane.task.name!r}: response-time iteration "
                    f"decreased ({window} -> {candidate}); this is a bug"
                )
            else:
                raise AnalysisError(
                    f"task {lane.task.name!r}: fixpoint did not converge "
                    f"within {_MAX_ITERATIONS} iterations"
                )
            if not lane.done:
                reentered.append(lane)
        keep = ~settled
        survivors = list(compress(active, keep.tolist()))
        if reentered:
            tails = state_arrays(reentered, step)
            act = np.concatenate((act[keep], tails[0]))
            windows = np.concatenate((candidates[keep], tails[1]))
            bases = np.concatenate((bases[keep], tails[2]))
            deadlines = np.concatenate((deadlines[keep], tails[3]))
            ranks = np.concatenate((ranks[keep], tails[4]))
            entries = np.concatenate((entries[keep], tails[5]))
            survivors.extend(reentered)
        else:
            act = act[keep]
            windows = candidates[keep]
            bases = bases[keep]
            deadlines = deadlines[keep]
            ranks = ranks[keep]
            entries = entries[keep]
        active = survivors
    return [lane.results for lane in lanes]


def _fixpoint(
    task: DAGTask,
    rank: int,
    m: int,
    responses: list[float],
    delta_m: float,
    delta_m1: float,
    limited_preemption: bool,
    memo: InterferenceMemo,
    warm_start: float | None,
) -> TaskAnalysis:
    base = task.longest_path + (task.volume - task.longest_path) / m
    window = base
    if warm_start is not None and warm_start > base:
        window = warm_start
    deadline = task.deadline
    preemptions = 0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        interference = memo.interference(rank, window, responses)
        if limited_preemption:
            preemptions = memo.preemptions(rank, window)
            interference += lower_priority_interference(delta_m, delta_m1, preemptions)
        candidate = base + math.floor(interference / m)
        if candidate > deadline:
            return TaskAnalysis(
                name=task.name,
                schedulable=False,
                response=math.inf,
                iterations=iteration,
                delta_m=delta_m,
                delta_m_minus_1=delta_m1,
                preemptions=preemptions,
            )
        if abs(candidate - window) <= _FIXPOINT_TOL * max(1.0, abs(window)):
            return TaskAnalysis(
                name=task.name,
                schedulable=True,
                response=candidate,
                iterations=iteration,
                delta_m=delta_m,
                delta_m_minus_1=delta_m1,
                preemptions=preemptions,
            )
        if candidate < window:  # pragma: no cover - monotonicity guard
            raise AnalysisError(
                f"task {task.name!r}: response-time iteration decreased "
                f"({window} -> {candidate}); this is a bug"
            )
        window = candidate
    raise AnalysisError(
        f"task {task.name!r}: fixpoint did not converge within "
        f"{_MAX_ITERATIONS} iterations"
    )
