"""Lower-priority blocking terms ``Δ^m_k`` and ``Δ^{m−1}_k``.

Under limited-preemptive global FP, a newly released task ``τ_k`` can
find all ``m`` cores occupied by non-preemptable NPRs of lower-priority
tasks (first blocking, ``Δ^m_k``), and can be blocked again by at most
``m − 1`` lower-priority NPRs at each of its ``p_k`` preemption points
(``Δ^{m−1}_k``). The paper proposes two bounds:

* **LP-max** (Eq. 5) — ignore precedence: take the ``m`` (resp.
  ``m − 1``) largest values among the union of the per-task ``m``
  (resp. ``m − 1``) largest NPR WCETs;
* **LP-ILP** (Eq. 8) — respect precedence: maximise the scenario
  workload ``ρ_k[s_l]`` over all execution scenarios ``s_l ∈ e_m``
  (resp. ``e_{m−1}``).

On the paper's Figure-1 example with ``m = 4`` these give
``Δ⁴ = 20 vs 19`` and ``Δ³ = 16 vs 15`` (LP-max vs LP-ILP).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Literal

from repro.exceptions import AnalysisError
from repro.core.scenarios import (
    execution_scenarios,
    max_rho_by_cores,
    rho_assignment,  # noqa: F401 -- public name of this module's ρ solver
    rho_ilp,
)
from repro.core.workload import MuMethod, mu_array_shared
from repro.model.task import DAGTask

RhoSolver = Literal["assignment", "ilp"]


def lp_max_deltas(lp_tasks: Sequence[DAGTask], m: int) -> tuple[float, float]:
    """``(Δ^m_k, Δ^{m−1}_k)`` by the LP-max bound (paper Eq. 5).

    For each lower-priority task take its ``m`` (resp. ``m − 1``)
    largest NPRs; pool them over all tasks; sum the ``m`` (resp.
    ``m − 1``) largest pooled values.

    Parameters
    ----------
    lp_tasks:
        The tasks in ``lp(k)``; an empty sequence yields ``(0, 0)``
        (the lowest-priority task suffers no lower-priority blocking).
    m:
        Core count (≥ 1).
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    return (
        _lp_max_single(lp_tasks, m),
        _lp_max_single(lp_tasks, m - 1),
    )


def _lp_max_single(lp_tasks: Sequence[DAGTask], count: int) -> float:
    if count == 0 or not lp_tasks:
        return 0.0
    pool: list[float] = []
    for task in lp_tasks:
        pool.extend(task.largest_nprs(count))
    pool.sort(reverse=True)
    return sum(pool[:count])


def lp_ilp_deltas(
    lp_tasks: Sequence[DAGTask],
    m: int,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
    mu_cache: dict[str, list[float]] | None = None,
) -> tuple[float, float]:
    """``(Δ^m_k, Δ^{m−1}_k)`` by the LP-ILP bound (paper Eq. 8).

    Three steps, following Section IV-B:

    1. per task, the worst-case parallel workload ``μ_i[c]`` for
       ``c = 1..m`` (:func:`repro.core.workload.mu_array`);
    2. per execution scenario ``s_l``, the overall worst-case workload
       ``ρ_k[s_l]``;
    3. ``Δ^m_k = max_{s_l ∈ e_m} ρ_k[s_l]`` and likewise over
       ``e_{m−1}``.

    Parameters
    ----------
    lp_tasks:
        The tasks in ``lp(k)``; empty yields ``(0, 0)``.
    m:
        Core count (≥ 1).
    mu_method:
        Solver for μ (``"search"``, ``"ilp"``, ``"ilp-paper"``).
    rho_solver:
        ``"assignment"`` (default; sound for every input — steps 2 and 3
        fuse into one knapsack pass, see
        :func:`repro.core.scenarios.max_rho_by_cores`) or ``"ilp"`` (the
        paper's formulation, one ILP per scenario; infeasible scenarios
        are skipped).
    mu_cache:
        Optional memo of μ arrays keyed by task name — the analyzer
        passes one so μ is computed once per task-set, mirroring the
        paper's observation that μ is a compile-time, per-task artefact.

    Returns
    -------
    tuple of float
        ``(Δ^m_k, Δ^{m−1}_k)``.
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    if not lp_tasks:
        return 0.0, 0.0

    mu_by_task: dict[str, list[float]] = {}
    for task in lp_tasks:
        if mu_cache is not None and task.name in mu_cache:
            mu = mu_cache[task.name]
            if len(mu) < m:
                raise AnalysisError(
                    f"cached mu array of {task.name!r} has {len(mu)} entries, need {m}"
                )
        else:
            mu = mu_array_shared(task, m, method=mu_method)
            if mu_cache is not None:
                mu_cache[task.name] = mu
        mu_by_task[task.name] = mu

    if rho_solver == "assignment":
        best = max_rho_by_cores(mu_by_task, m)
        return best[m], best[m - 1]
    if rho_solver != "ilp":
        raise AnalysisError(
            f"unknown rho solver {rho_solver!r}; choose 'assignment' or 'ilp'"
        )
    return (
        _lp_ilp_single(mu_by_task, m),
        _lp_ilp_single(mu_by_task, m - 1),
    )


def _lp_ilp_single(mu_by_task: dict[str, list[float]], m: int) -> float:
    """``max_{s_l ∈ e_m} ρ_k[s_l]`` with ρ from the paper's ILP.

    Scenarios the ILP finds infeasible contribute nothing. The default
    ``"assignment"`` solver skips this loop: one knapsack pass
    (:func:`repro.core.scenarios.max_rho_by_cores`) gives the maximum
    for ``m`` and ``m − 1`` at once, bit-identical to the per-scenario
    maximum on integer-valued μ (every generated corpus) and the exact
    optimum up to summation rounding on float μ.
    """
    if m == 0:
        return 0.0
    best = 0.0
    for scenario in execution_scenarios(m):
        # Carry the best scenario workload so far as the ILP incumbent:
        # later scenarios only pay for the branches that could still
        # raise the maximum.
        value = rho_ilp(mu_by_task, scenario, m, floor=best)
        if value is not None and value > best:
            best = value
    return best
