"""Execution scenarios and the overall worst-case workload ``ρ_k[s_l]``.

Paper Section IV-B2 / V-B: an *execution scenario* ``s_l ∈ e_m`` fixes
how many cores each lower-priority task occupies — mathematically, an
integer partition of ``m`` (Table II lists ``e_4``). For a scenario the
*overall worst-case workload* is (Eq. 7):

    ρ_k[s_l] = Σ max^{s_l}_{|s_l|} {μ_i}

i.e. pick ``|s_l|`` distinct tasks of ``lp(k)``, give each one part
(core count) of the partition, and maximise the summed ``μ_i[c]``.

Solvers
-------
* :func:`rho_assignment` (default) — exact rectangular assignment by a
  dynamic program over the multiset of part sizes. Parts may stay idle
  when ``lp(k)`` has fewer tasks than parts, which keeps the bound
  *sound* for small task-sets (see DESIGN.md, "Known paper issues");
* :func:`rho_ilp` — the paper's Section V-B ILP verbatim; its
  constraints force every part to be used by a distinct task and return
  ``None`` when that is infeasible;
* :func:`rho_bruteforce` — exhaustive oracle for tests.

With non-negative μ the assignment optimum equals the paper ILP optimum
whenever the latter is feasible (leaving a part idle never helps), which
tests assert on random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import AnalysisError
from repro.combinatorics.partitions import partitions
from repro.ilp import BinaryProgram, solve


@dataclass(frozen=True, slots=True)
class ExecutionScenario:
    """One scenario ``s_l``: a partition of ``m`` into per-task core counts.

    Attributes
    ----------
    parts:
        Non-increasing core counts, e.g. ``(2, 1, 1)``.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts):
            raise AnalysisError(f"scenario parts must be positive: {self.parts}")
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise AnalysisError(f"scenario parts must be non-increasing: {self.parts}")

    @property
    def m(self) -> int:
        """Total number of cores covered by the scenario."""
        return sum(self.parts)

    @property
    def cardinality(self) -> int:
        """``|s_l|``: how many distinct tasks execute in the scenario."""
        return len(self.parts)

    def describe(self) -> str:
        """Human-readable description in the style of the paper's Table II."""
        if not self.parts:
            return "no task runs"
        from collections import Counter

        counts = Counter(self.parts)
        bits = []
        for cores in sorted(counts, reverse=True):
            n_tasks = counts[cores]
            plural = "s" if n_tasks > 1 else ""
            bits.append(f"{n_tasks} task{plural} in {cores} core{'s' if cores > 1 else ''}")
        return ", ".join(bits)


def execution_scenarios(m: int) -> list[ExecutionScenario]:
    """``e_m``: every execution scenario for ``m`` cores (paper Table II).

    ``m = 0`` returns the single empty scenario (used for ``Δ^{m−1}``
    when ``m = 1``: no lower-priority NPR can block after the first
    preemption point because there are no other cores).
    """
    if m < 0:
        raise AnalysisError(f"core count m must be >= 0, got {m}")
    return [ExecutionScenario(parts) for parts in partitions(m)]


# ----------------------------------------------------------------------
# solver 1: rectangular assignment (default, sound for every input)
# ----------------------------------------------------------------------
def rho_assignment(
    mu_by_task: dict[str, list[float]],
    scenario: ExecutionScenario,
) -> float:
    """``ρ_k[s_l]`` by maximum-weight rectangular assignment.

    Each task either stays unused or takes one part ``c_t`` of the
    scenario and contributes ``μ_i[c_t]``; surplus parts stay idle
    (sound) and surplus tasks stay unused (required: one task
    contributes at most once). The exact optimum comes from a dynamic
    program over tasks whose state is the multiset of parts still free
    — at most ``Π (count_c + 1)`` states: 16 for ``m = 8``, 72 for
    ``m = 16``.

    Totals are accumulated in task order. On integer-valued μ — every
    generated corpus, since WCETs come from ``rng.integers`` — the
    result is bit-identical to any other exact solver; on float μ it
    is the exact optimum up to summation rounding. μ is assumed
    non-negative, as every μ array is.

    Parameters
    ----------
    mu_by_task:
        ``μ_i`` arrays (length ≥ max part) keyed by task name.
    scenario:
        The partition of ``m``.

    Returns
    -------
    float
        The maximal summed workload; 0.0 for an empty scenario or an
        empty ``lp(k)``.
    """
    if not mu_by_task or not scenario.parts:
        return 0.0
    widest = scenario.parts[0]
    for name, mu in mu_by_task.items():
        if len(mu) < widest:
            raise AnalysisError(
                f"mu array of task {name!r} has {len(mu)} entries, "
                f"but the scenario needs mu[{widest}]"
            )
    sizes = sorted(set(scenario.parts), reverse=True)
    # Free parts per distinct size -> best workload placed so far.
    best = {tuple(scenario.parts.count(size) for size in sizes): 0.0}
    for mu in mu_by_task.values():
        grown = dict(best)
        for free, total in best.items():
            for idx, size in enumerate(sizes):
                if free[idx]:
                    key = free[:idx] + (free[idx] - 1,) + free[idx + 1 :]
                    value = total + mu[size - 1]
                    if value > grown.get(key, -1.0):
                        grown[key] = value
        best = grown
    return float(max(best.values()))


def max_rho_by_cores(
    mu_by_task: dict[str, list[float]],
    m: int,
) -> list[float]:
    """``max_{s_l ∈ e_j} ρ_k[s_l]`` for every ``j = 0..m`` in one pass.

    With μ ≥ 0 the best scenario workload on ``j`` cores is the largest
    ``Σ μ_i[c_i]`` over distinct tasks with ``c_i ≥ 1`` and
    ``Σ c_i ≤ j``: such a selection fits a partition of ``j`` once it
    is padded with 1-parts (the padding stays idle), and every
    assignment of :func:`rho_assignment` is such a selection. That is a
    0/1 knapsack over ``lp(k)`` with capacities ``0..m`` —
    ``O(|lp(k)| · m²)`` instead of one assignment per partition.

    Totals are accumulated in task order, exactly as in
    :func:`rho_assignment`: bit-identical to the per-scenario maximum
    on integer-valued μ, the exact optimum up to summation rounding on
    float μ.

    Raises
    ------
    AnalysisError
        If ``m < 0`` or a μ array has fewer than ``m`` entries.
    """
    if m < 0:
        raise AnalysisError(f"core count m must be >= 0, got {m}")
    # best[j]: the largest workload of the tasks seen so far on <= j cores.
    best = [0.0] * (m + 1)
    for name, mu in mu_by_task.items():
        if len(mu) < m:
            raise AnalysisError(
                f"mu array of task {name!r} has {len(mu)} entries, need {m}"
            )
        # Descending j: best[j - c] still excludes this task (0/1 knapsack).
        for j in range(m, 0, -1):
            top = best[j]
            for c in range(1, j + 1):
                value = best[j - c] + mu[c - 1]
                if value > top:
                    top = value
            best[j] = top
    return best


# ----------------------------------------------------------------------
# solver 2: the paper's Section V-B ILP
# ----------------------------------------------------------------------
def rho_ilp(
    mu_by_task: dict[str, list[float]],
    scenario: ExecutionScenario,
    m: int,
    floor: float | None = None,
) -> float | None:
    """``ρ_k[s_l]`` via the paper's ILP; ``None`` when infeasible.

    ``floor`` warm-starts the branch-and-bound with a workload value
    already achieved by another scenario: assignments that cannot beat
    it are pruned, and ``None`` is returned when nothing better exists
    (the caller keeps its running maximum, so the portfolio result is
    unchanged — only cheaper).

    Variables ``w_i^c`` select "task ``τ_i`` contributes with ``c``
    cores". Constraints (paper Section V-B):

    1. ``Σ_{c} Σ_{i} w_i^c = |s_l|`` — exactly ``|s_l|`` tasks contribute;
    2. ``Σ_c w_i^c <= 1`` per task — a task appears at most once;
    3. ``Σ_i w_i^c >= 1`` for each distinct ``c ∈ s_l`` — every core
       count of the scenario is used;
    4. ``Σ_{c} Σ_{i} c · w_i^c = m`` — all ``m`` cores are covered.

    Objective: ``max Σ w_i^c · μ_i[c]``.

    Note the feasibility caveat discussed in the module docstring: with
    ``|lp(k)| < |s_l|`` (or insufficient parallelism) the instance is
    infeasible and the scenario contributes nothing.
    """
    if scenario.m != m:
        raise AnalysisError(
            f"scenario covers {scenario.m} cores but m={m} was requested"
        )
    if not scenario.parts:
        return 0.0
    if not mu_by_task:
        return None
    names = list(mu_by_task)
    for name in names:
        if len(mu_by_task[name]) < m:
            raise AnalysisError(
                f"mu array of task {name!r} has {len(mu_by_task[name])} entries, "
                f"need {m}"
            )

    program = BinaryProgram(maximize=True)
    for name in names:
        for c in range(1, m + 1):
            program.add_var(f"w[{name},{c}]", objective=mu_by_task[name][c - 1])

    all_vars = {f"w[{name},{c}]": 1.0 for name in names for c in range(1, m + 1)}
    program.add_constraint(all_vars, "==", scenario.cardinality, name="|s_l| tasks")
    for name in names:
        program.add_constraint(
            {f"w[{name},{c}]": 1.0 for c in range(1, m + 1)},
            "<=",
            1,
            name=f"task {name} at most once",
        )
    for c in sorted(set(scenario.parts)):
        program.add_constraint(
            {f"w[{name},{c}]": 1.0 for name in names},
            ">=",
            1,
            name=f"core count {c} used",
        )
    program.add_constraint(
        {f"w[{name},{c}]": float(c) for name in names for c in range(1, m + 1)},
        "==",
        m,
        name="all m cores covered",
    )

    solution = solve(program, incumbent=floor)
    if not solution.is_optimal:
        return None
    return solution.objective


# ----------------------------------------------------------------------
# solver 3: exhaustive oracle (tests)
# ----------------------------------------------------------------------
def rho_bruteforce(
    mu_by_task: dict[str, list[float]],
    scenario: ExecutionScenario,
) -> float:
    """Exhaustive ρ oracle: try every injective parts→tasks mapping.

    Exponential; for test fixtures only. Semantics match
    :func:`rho_assignment` (parts may stay idle).
    """
    from itertools import permutations

    names = list(mu_by_task)
    parts = scenario.parts
    if not names or not parts:
        return 0.0
    best = 0.0
    k = min(len(names), len(parts))
    # Choose which k parts are used (when tasks are scarce) and which
    # tasks take them; with mu >= 0 using as many parts as possible is
    # optimal, so trying all k-subsets of parts is exhaustive.
    from itertools import combinations

    for part_subset in combinations(range(len(parts)), k):
        for task_subset in permutations(names, k):
            total = 0.0
            for part_idx, name in zip(part_subset, task_subset):
                total += mu_by_task[name][parts[part_idx] - 1]
            best = max(best, total)
    return best
