"""Content-addressed fingerprints of DAGs and task-sets.

The verdict cache (:mod:`repro.engine.vcache`) and the content-addressed
μ memo (:mod:`repro.core.workload`) key on *what is analysed*, not on
how it happens to be labelled in memory.  Two requirements follow:

* **node-id invariance** — renaming the NPRs of a DAG (or permuting
  their insertion order) must not change the fingerprint, because no
  analysis quantity (volume, longest path, parallelism sets, μ, ρ, the
  RTA fixpoint) depends on node names;
* **content sensitivity** — any change to a WCET, an edge, a period, a
  deadline, the priority *order*, or the task names must change it,
  because those do change the verdict (task names appear in the
  per-task results).

:func:`dag_fingerprint` implements a direction-aware Weisfeiler–Leman
label refinement: every node starts from a hash of its WCET and is
iteratively re-hashed together with the sorted labels of its
predecessors and successors, for ``|V|`` rounds (enough for the
partition to stabilise on any DAG).  The fingerprint is a SHA-256 over
the sorted final node labels and the sorted edge label pairs, so it is
invariant under any relabelling/reordering of isomorphic graphs while
remaining collision-resistant for distinct structures.

Raw priority *values* are deliberately excluded from the task-set
fingerprint: the analysis only consumes the priority order, which
:class:`~repro.model.taskset.TaskSet` already canonicalises, so task-sets
that differ only in priority numbering share their verdicts.
"""

from __future__ import annotations

import hashlib

from repro.model.dag import DAG
from repro.model.taskset import TaskSet


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: ``repr(wcet)`` → initial WL label ``_digest(f"wcet:{repr}")``.  Keyed
#: by ``repr``, not by value, because ``1`` and ``1.0`` label differently.
#: The generator draws integer WCETs from ``[1, 100]``, so nearly every
#: node's first label is a lookup.  Cleared wholesale when full.
_WCET_LABELS: dict[str, str] = {}
_WCET_LABELS_MAX = 4096


def _wcet_label(wcet: float) -> str:
    text = repr(wcet)
    label = _WCET_LABELS.get(text)
    if label is None:
        if len(_WCET_LABELS) >= _WCET_LABELS_MAX:
            _WCET_LABELS.clear()
        label = _WCET_LABELS[text] = _digest(f"wcet:{text}")
    return label


def dag_fingerprint(dag: DAG) -> str:
    """Isomorphism-invariant content hash of a DAG (WL refinement).

    The result is memoised on the DAG instance (DAGs are immutable).
    """
    cached = dag.__dict__.get("_content_fingerprint")
    if cached is not None:
        return cached
    names = dag.node_names
    adjacency = [
        (name, dag.predecessors(name), dag.successors(name)) for name in names
    ]
    labels = {name: _wcet_label(dag.wcet(name)) for name in names}
    # Each round strictly refines the label partition (the old label is
    # part of the new one), so the class count is non-decreasing and a
    # round that does not grow it left the partition — and every later
    # round — unchanged.  Stopping there is isomorphism-invariant (the
    # round count is determined by the partition trajectory, not by
    # node names) and ends after ~diameter rounds instead of |V|.
    distinct = len(set(labels.values()))
    for _ in range(len(names)):
        labels = {
            name: _digest(
                labels[name]
                + "|p:" + ",".join(sorted([labels[p] for p in preds]))
                + "|s:" + ",".join(sorted([labels[s] for s in succs]))
            )
            for name, preds, succs in adjacency
        }
        refined = len(set(labels.values()))
        if refined == distinct:
            break
        distinct = refined
    node_part = ";".join(sorted(labels.values()))
    edge_part = ";".join(sorted(f"{labels[u]}>{labels[v]}" for u, v in dag.edges))
    fingerprint = _digest(f"dag|{len(names)}|{node_part}#{edge_part}")
    dag.__dict__["_content_fingerprint"] = fingerprint
    return fingerprint


def taskset_fingerprint(taskset: TaskSet) -> str:
    """Canonical content hash of a task-set.

    Covers, in priority order: task name, period, deadline and the DAG
    fingerprint.  Floats enter via ``repr`` (exact round-trip), so any
    WCET/period/deadline perturbation changes the hash.
    """
    parts = [
        f"{task.name}|T={task.period!r}|D={task.deadline!r}"
        f"|g={dag_fingerprint(task.graph)}"
        for task in taskset
    ]
    return _digest("taskset|" + "\n".join(parts))
