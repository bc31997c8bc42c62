"""Extension experiment: preemption-point granularity sweep.

Limited preemption interpolates between fully non-preemptive (few,
large NPRs — heavy blocking imposed, few preemptions suffered) and
fully preemptive (many tiny NPRs — no blocking, every release
preempts). This sweep takes group-1 task-sets, re-splits every NPR
above a WCET threshold (:func:`repro.model.transforms.split_all_nodes`)
and measures LP-ILP schedulability as the threshold shrinks — the
system-level view of the preemption-point placement problem (paper
refs [12], [17], [18], and its future-work item (ii)).

Two regimes, matching the paper's framing:

* **overhead-free** (the paper's model): finer NPRs monotonically help
  — Δ shrinks while ``p_k = min(q_k, h_k)`` is already capped by the
  release count ``h_k``, so LP-ILP approaches FP-ideal;
* **with preemption overheads** (``overhead > 0``; the costs the
  paper's introduction motivates): every inserted point inflates WCETs,
  so utilisation grows as NPRs shrink and schedulability becomes
  non-monotone — the placement problem of refs [12], [17], [18].

The corpus is generated once in the parent process; each task-set's
evaluation across all thresholds is one work item on a
:mod:`repro.engine.executors` executor (``jobs``), and per-threshold
aggregates are reduced in corpus order, so serial and parallel runs are
bit-identical.

Like the grid sweeps, a split sweep shards across independent
invocations: a :class:`~repro.engine.shard.ShardSpec` selects a strided
slice of the corpus (every shard regenerates the identical corpus from
the seed, then evaluates only its own task-sets), each invocation
writes a ``kind="splitsweep"`` shard artifact storing its per-item
rows, and :func:`merge_split_shards` re-reduces the rows in corpus
order — bit-identical to the unsharded serial run, float sums included.
A ``stream`` path emits one JSONL line per task-set as it completes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import AnalysisError, ShardError
from repro.core.analyzer import AnalysisMethod, analyze_taskset
from repro.engine.rowsweep import collect_rows, run_row_sweep
from repro.engine.shard import KIND_SPLITSWEEP, ShardArtifact, ShardSpec
from repro.generator.profiles import GROUP1, TasksetProfile
from repro.generator.taskset_gen import generate_taskset
from repro.model.taskset import TaskSet
from repro.model.transforms import with_split_nodes


@dataclass(frozen=True, slots=True)
class SplitSweepPoint:
    """Acceptance ratio at one NPR-size threshold."""

    threshold: float
    n_tasksets: int
    schedulable: int
    mean_q: float
    mean_utilization: float

    @property
    def ratio(self) -> float:
        return self.schedulable / self.n_tasksets if self.n_tasksets else 0.0


def split_taskset(
    taskset: TaskSet, threshold: float, overhead: float = 0.0
) -> TaskSet:
    """Split every NPR above ``threshold`` across a whole task-set."""
    if not (threshold > 0) or math.isinf(threshold):
        raise AnalysisError(f"threshold must be positive and finite, got {threshold}")
    return TaskSet(
        [with_split_nodes(task, threshold, overhead=overhead) for task in taskset]
    )


def _evaluate_split_item(
    payload: tuple[int, TaskSet, int, tuple[float, ...], AnalysisMethod, float],
) -> tuple[int, list[tuple[int, int, float, bool]]]:
    """One task-set across all thresholds (runs in a worker process).

    Returns the corpus index and, per threshold, ``(Σq, task count,
    total utilisation, schedulable)`` of the split task-set.  The index
    tag lets results stream in completion order yet reduce in corpus
    order (float sums stay bit-identical for any executor or shard).
    """
    index, taskset, m, thresholds, method, overhead = payload
    rows: list[tuple[int, int, float, bool]] = []
    for threshold in thresholds:
        split = split_taskset(taskset, threshold, overhead=overhead)
        rows.append(
            (
                sum(t.q for t in split),
                len(split),
                split.total_utilization,
                analyze_taskset(split, m, method).schedulable,
            )
        )
    return index, rows


def split_sweep_fingerprint(
    m: int,
    utilization: float,
    thresholds: tuple[float, ...],
    n_tasksets: int,
    seed: int,
    profile: TasksetProfile,
    method: AnalysisMethod,
    overhead: float,
) -> str:
    """Stable hash identifying one split-sweep configuration."""
    canonical = repr(
        (
            "repro.experiments.splitsweep/v1",
            m,
            utilization,
            tuple(thresholds),
            n_tasksets,
            seed,
            repr(profile),
            method.value,
            overhead,
        )
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _reduce_split_rows(
    thresholds: tuple[float, ...],
    rows_in_order: list[list[tuple[int, int, float, bool]]],
    n_evaluated: int,
) -> list[SplitSweepPoint]:
    """Fold per-item rows (already in corpus order) into sweep points.

    This is the single reduction path shared by direct runs and
    :func:`merge_split_shards`, so both sum in the same order and agree
    bit-for-bit.
    """
    points: list[SplitSweepPoint] = []
    for t_index, threshold in enumerate(thresholds):
        good = 0
        total_q = 0
        total_tasks = 0
        total_u = 0.0
        for rows in rows_in_order:
            q, tasks, u, schedulable = rows[t_index]
            total_q += q
            total_tasks += tasks
            total_u += u
            if schedulable:
                good += 1
        points.append(
            SplitSweepPoint(
                threshold=threshold,
                n_tasksets=n_evaluated,
                schedulable=good,
                mean_q=total_q / total_tasks if total_tasks else 0.0,
                mean_utilization=total_u / n_evaluated if n_evaluated else 0.0,
            )
        )
    return points


def splitsweep_job(
    m: int,
    utilization: float = 1.75,
    thresholds: tuple[float, ...] | None = None,
    n_tasksets: int = 30,
    seed: int = 2016,
    overhead: float = 0.0,
    execution=None,
):
    """The declarative :class:`~repro.engine.jobspec.JobSpec` of one
    split-sweep run — what the CLI subcommand, ``sweep-run`` job files
    and the orchestrator all build.  The job form fixes the paper's
    GROUP1 corpus and LP-ILP analysis; the ``profile`` / ``method``
    research knobs remain on :func:`run_split_sweep`."""
    from repro.engine.jobspec import ExecutionPolicy, JobSpec, Workload

    return JobSpec(
        workload=Workload(
            kind="splitsweep", m=m, utilization=utilization,
            thresholds=(
                tuple(float(t) for t in thresholds)
                if thresholds is not None else None
            ),
            n_tasksets=n_tasksets, seed=seed, overhead=overhead,
        ),
        execution=execution if execution is not None else ExecutionPolicy(),
    )


def run_split_sweep(
    m: int,
    utilization: float,
    thresholds: list[float],
    n_tasksets: int = 30,
    seed: int = 2016,
    profile: TasksetProfile = GROUP1,
    method: AnalysisMethod = AnalysisMethod.LP_ILP,
    overhead: float = 0.0,
    jobs: int = 1,
    shard: ShardSpec | None = None,
    shard_out: str | Path | None = None,
    stream: str | Path | None = None,
) -> list[SplitSweepPoint]:
    """Schedulability vs NPR-size threshold on a fixed task-set corpus.

    .. deprecated::
        A thin shim over the declarative job API: the default
        profile/method configuration is exactly what a
        ``kind="splitsweep"`` :class:`~repro.engine.jobspec.JobSpec`
        describes (run through
        :class:`~repro.engine.session.Session` / ``sweep-run``);
        results are bit-identical to previous releases.  The
        ``profile`` / ``method`` research knobs remain available here.

    The same ``n_tasksets`` task-sets are re-analysed at every
    threshold, so points are directly comparable.

    Parameters
    ----------
    m / utilization / n_tasksets / seed / profile:
        Corpus definition (same knobs as the Figure-2 sweeps).
    thresholds:
        NPR-size caps to test, e.g. ``[1000, 100, 50, 25, 10]``.
    method:
        Analysis applied (LP-ILP by default).
    overhead:
        WCET inflation per inserted preemption point (see
        :func:`repro.model.transforms.split_node`); 0 reproduces the
        paper's overhead-free model.
    jobs:
        Worker processes; results are identical for any value.
    shard / shard_out:
        Evaluate only the shard's slice of the corpus (the corpus
        itself is regenerated identically from the seed in every
        shard), writing a ``kind="splitsweep"`` artifact to
        ``shard_out``; recombine with :func:`merge_split_shards`.
    stream:
        Optional JSONL path; one ``item`` line per task-set, flushed as
        each completes.
    """
    import warnings

    warnings.warn(
        "run_split_sweep() is deprecated: build a kind='splitsweep' "
        "JobSpec and run it through repro.engine.session.Session / "
        "sweep-run",
        DeprecationWarning,
        stacklevel=2,
    )
    return _run_split_sweep(
        m=m, utilization=utilization, thresholds=thresholds,
        n_tasksets=n_tasksets, seed=seed, profile=profile, method=method,
        overhead=overhead, jobs=jobs, shard=shard, shard_out=shard_out,
        stream=stream,
    )


def _run_split_sweep(
    m: int,
    utilization: float,
    thresholds: list[float],
    n_tasksets: int = 30,
    seed: int = 2016,
    profile: TasksetProfile = GROUP1,
    method: AnalysisMethod = AnalysisMethod.LP_ILP,
    overhead: float = 0.0,
    jobs: int = 1,
    executor_kind: str = "process",
    shard: ShardSpec | None = None,
    shard_out: str | Path | None = None,
    stream: str | Path | None = None,
) -> list[SplitSweepPoint]:
    """The split-sweep runner behind :func:`run_split_sweep` and the
    Session's ``kind="splitsweep"`` jobs (which also pick the executor
    flavour)."""
    if not thresholds:
        raise AnalysisError("need at least one threshold")
    thresholds = tuple(thresholds)
    rng = np.random.default_rng(seed)
    corpus = [generate_taskset(rng, utilization, profile) for _ in range(n_tasksets)]
    meta = {
        "m": m,
        "utilization": utilization,
        "thresholds": list(thresholds),
        "n_tasksets": n_tasksets,
        "seed": seed,
        "overhead": overhead,
        "method": method.value,
    }
    indexes, rows_in_order = run_row_sweep(
        kind=KIND_SPLITSWEEP,
        fingerprint=split_sweep_fingerprint(
            m, utilization, thresholds, n_tasksets, seed, profile, method, overhead
        ),
        total_items=n_tasksets,
        meta=meta,
        evaluate=_evaluate_split_item,
        payload_for=lambda index: (
            index, corpus[index], m, thresholds, method, overhead
        ),
        jobs=jobs,
        executor_kind=executor_kind,
        shard=shard,
        shard_out=shard_out,
        stream=stream,
    )
    return _reduce_split_rows(thresholds, rows_in_order, len(indexes))


def merge_split_shards(
    shards: list[ShardArtifact | str | Path],
) -> list[SplitSweepPoint]:
    """Recombine split-sweep shard artifacts into the unsharded points.

    Validates the set like :func:`repro.engine.shard.merge_shards`
    (fingerprints, format version, duplicate/missing shards, per-item
    gaps and overlaps), reassembles every task-set's rows in corpus
    order and re-runs the exact serial reduction — the merged points
    are bit-identical to a single-process run, float means included.
    """
    from repro.engine.registry import row_codec_for

    first, rows_in_order = collect_rows(
        shards,
        kind=KIND_SPLITSWEEP,
        row_codec=row_codec_for(KIND_SPLITSWEEP),
    )
    raw_thresholds = first.meta.get("thresholds")
    if not isinstance(raw_thresholds, (list, tuple)) or not raw_thresholds:
        raise ShardError(
            "splitsweep shard metadata is missing its thresholds list; "
            "artifact is corrupt"
        )
    thresholds = tuple(float(t) for t in raw_thresholds)
    for index, rows in enumerate(rows_in_order):
        if len(rows) != len(thresholds):
            raise ShardError(
                f"splitsweep item {index} has {len(rows)} rows for "
                f"{len(thresholds)} thresholds; artifact is corrupt"
            )
    return _reduce_split_rows(thresholds, rows_in_order, first.total_items)
