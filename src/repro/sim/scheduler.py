"""Dispatch policy: eager limited-preemptive global fixed priority.

Separated from the engine so the policy is unit-testable in isolation.
The ready pool holds ``(job, node)`` pairs whose predecessors have all
completed; :func:`pick_next` returns the pair to dispatch when a core
is free. Priority order:

1. task priority (lower value first — the fixed-priority rule);
2. job release time (FIFO among jobs of the same task);
3. node topological rank (deterministic tie-break inside a job).

Because NPRs are non-preemptable, the engine only ever calls this when
a core is idle; a running NPR is never revoked, which — combined with
the rule above — realises *eager* preemption: the first lower-priority
task to reach a preemption point loses its core to any waiting
higher-priority work, even if it is not the lowest-priority running
task.
"""

from __future__ import annotations

from repro.sim.job import Job

ReadyEntry = tuple[Job, str]


def sort_key(entry: ReadyEntry) -> tuple[int, float, int, int]:
    """Total dispatch order over ready ``(job, node)`` entries."""
    job, node = entry
    priority = job.task.priority
    if priority is None:  # pragma: no cover - TaskSet guarantees priorities
        priority = 1 << 30
    rank = job.task.graph.topological_rank[node]
    return (priority, job.release, job.jid, rank)


def pick_next(ready: list[ReadyEntry]) -> ReadyEntry | None:
    """Pop and return the highest-priority ready entry (None if empty)."""
    if not ready:
        return None
    best_index = 0
    best_key = sort_key(ready[0])
    for i in range(1, len(ready)):
        key = sort_key(ready[i])
        if key < best_key:
            best_key = key
            best_index = i
    return ready.pop(best_index)
