"""Fast-kernel floors: verdict cache, RTA memoisation and batching, Δ.

Speedup floors keep the analysis kernel honest, and each doubles as a
bit-identity check (the optimised paths must change *nothing* but the
wall-clock). Among them:

* a warm verdict cache must replay a whole sweep at least 5x faster
  than the cold run that populated it — the cache read path (fingerprint
  + lookup) has to be cheap relative to a full multi-method analysis;
* the :class:`~repro.core.interference.InterferenceMemo` must evaluate
  the fixpoint's ``I^hp_k`` query stream at least 1.5x faster than the
  seed kernel's per-call :func:`higher_priority_interference` on the
  group-2 shape (wide, parallel-only task-sets), while summing to the
  bit-identical total;
* the one-pass knapsack Δ (:func:`~repro.core.scenarios.max_rho_by_cores`)
  must give LP-ILP's ``(Δ^m, Δ^{m−1})`` at least 5x faster than the
  maximum over ``e_m`` of per-scenario ρ on the wide m=8 corpus, with
  identical values.

Each run appends its numbers to ``BENCH_kernel.json`` at the repo root
— the checked-in benchmark trajectory.  Sizes are tunable via
``REPRO_BENCH_TASKSETS`` / ``REPRO_BENCH_POINTS`` (see
``benchmarks/conftest.py``).
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from repro.core.interference import InterferenceMemo, higher_priority_interference
from repro.engine import SweepEngine, SweepSpec
from repro.generator.profiles import GROUP2
from repro.generator.taskset_gen import generate_taskset

SEED = 2016
REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_FILE = REPO_ROOT / "BENCH_kernel.json"


def _record(section: str, payload: dict, check: bool = False) -> None:
    """Merge one benchmark's numbers into the checked-in trajectory.

    Under ``--check`` (``check=True``) nothing is rewritten: the
    section must already exist in ``BENCH_kernel.json`` and carry the
    same floor this test enforces — CI compares against the committed
    trajectory instead of silently re-baselining it.
    """
    if check:
        data = json.loads(BENCH_FILE.read_text())
        recorded = data.get(section)
        assert recorded is not None, (
            f"--check: no {section!r} section in {BENCH_FILE.name}; run "
            "the benchmarks once without --check to record it"
        )
        assert recorded.get("floor") == payload["floor"], (
            f"--check: {section!r} floor in {BENCH_FILE.name} is "
            f"{recorded.get('floor')} but the test enforces "
            f"{payload['floor']}; re-record the trajectory"
        )
        return
    data = {}
    if BENCH_FILE.exists():
        try:
            data = json.loads(BENCH_FILE.read_text())
        except (OSError, json.JSONDecodeError):
            data = {}
    data.setdefault("version", 1)
    data["generated_by"] = "benchmarks/bench_kernel.py"
    data[section] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _strip(result):
    return dataclasses.replace(result, elapsed_seconds=0.0)


def _best_of(fn, rounds=3) -> float:
    best = float("inf")
    for _ in range(rounds):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def test_warm_verdict_cache_replays_5x_faster(
    tmp_path, bench_tasksets, bench_check
):
    # Serial engine, one process: the warm run measures the cache read
    # path alone, with no pool fork/teardown noise in either leg.  The
    # shape is the cache's raison d'etre — the exact ILP solver stack
    # (mu and rho both via branch-and-bound) in the borderline band
    # around u = m/2 where LP-ILP really runs, so one verdict costs
    # seconds while a cached replay costs a fingerprint and a lookup.
    spec = SweepSpec(
        m=8,
        utilizations=(3.4, 3.7, 4.0),
        n_tasksets=max(2, bench_tasksets // 5),
        profile=GROUP2,
        seed=SEED,
        mu_method="ilp",
        rho_solver="ilp",
        label="bench-kernel-cache",
    )
    cache_dir = tmp_path / "cache"

    begin = time.perf_counter()
    cold = SweepEngine(cache="readwrite", cache_dir=cache_dir).run(spec)
    cold_seconds = time.perf_counter() - begin

    # Drop the in-process cache handle so the warm run really loads the
    # persisted shards from disk, like a fresh process would.
    from repro.engine import sweep as sweep_module

    sweep_module._RUN_CACHES.clear()

    begin = time.perf_counter()
    warm = SweepEngine(cache="read", cache_dir=cache_dir).run(spec)
    warm_seconds = time.perf_counter() - begin

    assert _strip(warm) == _strip(cold)  # the cache changes nothing
    speedup = cold_seconds / warm_seconds
    _record(
        "verdict_cache",
        {
            "items": spec.total_items,
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "speedup": round(speedup, 2),
            "floor": 5.0,
        },
        check=bench_check,
    )
    assert speedup >= 5.0, (
        f"warm verdict-cache replay is only {speedup:.1f}x faster than the "
        f"cold run ({warm_seconds:.3f}s vs {cold_seconds:.3f}s); the cache "
        "read path must stay cheap relative to a multi-method analysis"
    )


def _fixpoint_queries(taskset, m):
    """The ``I^hp_k`` query stream of one multi-method analysis pass.

    Three methods analyse the same task-set in priority order; each
    task's fixpoint re-evaluates a slowly-growing window a handful of
    times.  Windows repeat across methods — exactly the redundancy the
    memo exists to collapse.
    """
    responses = [
        task.longest_path + (task.volume - task.longest_path) / m
        for task in taskset.tasks
    ]
    for _ in range(3):  # methods sharing one memo
        for rank, task in enumerate(taskset.tasks):
            window = responses[rank]
            for _ in range(6):  # fixpoint iterations
                yield rank, window, responses
                window = window * 1.25 + 1.0
    return


def test_interference_memo_beats_seed_kernel(bench_tasksets, bench_check):
    # Group-2 shape: parallel-only DAG tasks, wide enough that the
    # memo's numpy batch path engages on the low-priority ranks.
    m = 8
    tasksets = [
        generate_taskset(np.random.default_rng(SEED + i), 6.0, GROUP2)
        for i in range(max(24, 2 * bench_tasksets))
    ]

    def run_memo():
        total = 0.0
        for taskset in tasksets:
            memo = InterferenceMemo(taskset, m)
            for rank, window, responses in _fixpoint_queries(taskset, m):
                total += memo.interference(rank, window, responses[:rank])
        return total

    def run_seed():
        # The seed kernel's path: one scalar W_i sweep per query, no
        # memoisation anywhere.
        total = 0.0
        for taskset in tasksets:
            by_name = {
                task.name: response
                for task, response in zip(
                    taskset.tasks,
                    (
                        t.longest_path + (t.volume - t.longest_path) / m
                        for t in taskset.tasks
                    ),
                )
            }
            for rank, window, _ in _fixpoint_queries(taskset, m):
                total += higher_priority_interference(
                    taskset.tasks[:rank], window, m, by_name
                )
        return total

    assert run_memo() == run_seed()  # bit-identical totals, always

    memo_seconds = _best_of(run_memo)
    seed_seconds = _best_of(run_seed)
    speedup = seed_seconds / memo_seconds
    _record(
        "interference_memo",
        {
            "tasksets": len(tasksets),
            "m": m,
            "seed_seconds": round(seed_seconds, 4),
            "memo_seconds": round(memo_seconds, 4),
            "speedup": round(speedup, 2),
            "floor": 1.5,
        },
        check=bench_check,
    )
    assert speedup >= 1.5, (
        f"InterferenceMemo is only {speedup:.2f}x faster than the seed "
        f"kernel ({memo_seconds:.4f}s vs {seed_seconds:.4f}s) on the "
        "group-2 shape; the memoised/vectorised hot path has regressed"
    )


def _wide_corpus(count):
    """Wide group-2 task-sets: small per-task utilisations, so u = 6
    packs ~35 tasks per set."""
    wide = dataclasses.replace(
        GROUP2, beta=0.1, u_task_max=0.25, utilization_mode="uniform"
    )
    return [
        generate_taskset(np.random.default_rng(SEED + i), 6.0, wide)
        for i in range(count)
    ]


def test_batched_rta_beats_per_item_loop(bench_tasksets, bench_check):
    # The cross-lane kernel: analysing the corpus through
    # analyze_taskset_multi_batch must beat the per-item loop it is
    # semantically equal to.  The shape is a *wide* group-2 variant
    # (small per-task utilisations, so u = 6 packs ~35 tasks per set):
    # every fixpoint step sums a long hp prefix, which is where one
    # cross-lane 2-D kernel amortises the numpy dispatch the per-item
    # path pays per taskset per iteration.  Narrow corpora stay
    # bookkeeping-bound and neither path can beat the other.
    from repro.core.analyzer import (
        analyze_taskset_multi,
        analyze_taskset_multi_batch,
    )

    m = 8
    tasksets = _wide_corpus(max(24, 2 * bench_tasksets))

    def run_serial():
        return [analyze_taskset_multi(taskset, m) for taskset in tasksets]

    def run_batch():
        return analyze_taskset_multi_batch(tasksets, m)

    assert run_batch() == run_serial()  # bit-identical verdicts, always

    serial_seconds = _best_of(run_serial)
    batch_seconds = _best_of(run_batch)
    speedup = serial_seconds / batch_seconds
    _record(
        "batched_rta",
        {
            "tasksets": len(tasksets),
            "tasks_per_set": round(
                sum(len(ts.tasks) for ts in tasksets) / len(tasksets), 1
            ),
            "m": m,
            "serial_seconds": round(serial_seconds, 4),
            "batch_seconds": round(batch_seconds, 4),
            "speedup": round(speedup, 2),
            "floor": 1.3,
        },
        check=bench_check,
    )
    assert speedup >= 1.3, (
        f"batched RTA is only {speedup:.2f}x faster than the per-item "
        f"loop ({batch_seconds:.4f}s vs {serial_seconds:.4f}s) on the "
        "group-2 shape; the cross-lane fixpoint kernel has regressed"
    )


def test_knapsack_delta_beats_per_scenario_rho(bench_tasksets, bench_check):
    # LP-ILP's blocking terms on the wide m=8 corpus of the batched-RTA
    # case: for every priority rank, (Δ^m, Δ^{m-1}) over lp(k) by one
    # knapsack pass against the definition — max over e_m and e_{m-1}
    # of the per-scenario assignment ρ (37 assignments per rank).
    from repro.core.scenarios import (
        execution_scenarios,
        max_rho_by_cores,
        rho_assignment,
    )
    from repro.core.workload import mu_array

    m = 8
    tasksets = _wide_corpus(max(6, bench_tasksets // 2))
    tables = []
    for taskset in tasksets:
        mu = {task.name: mu_array(task, m) for task in taskset.tasks}
        for rank in range(len(taskset.tasks)):
            tables.append({t.name: mu[t.name] for t in taskset.tasks[rank + 1 :]})
    scenarios = [execution_scenarios(m), execution_scenarios(m - 1)]

    def run_scenarios():
        return [
            tuple(
                max(rho_assignment(table, scenario) for scenario in e_c)
                for e_c in scenarios
            )
            for table in tables
        ]

    def run_knapsack():
        out = []
        for table in tables:
            best = max_rho_by_cores(table, m)
            out.append((best[m], best[m - 1]))
        return out

    assert run_knapsack() == run_scenarios()  # bit-identical Δ, always

    scenario_seconds = _best_of(run_scenarios, rounds=1)
    knapsack_seconds = _best_of(run_knapsack)
    speedup = scenario_seconds / knapsack_seconds
    _record(
        "knapsack_delta",
        {
            "tasksets": len(tasksets),
            "lp_sets": len(tables),
            "m": m,
            "scenario_seconds": round(scenario_seconds, 4),
            "knapsack_seconds": round(knapsack_seconds, 4),
            "speedup": round(speedup, 2),
            "floor": 5.0,
        },
        check=bench_check,
    )
    assert speedup >= 5.0, (
        f"the knapsack Δ is only {speedup:.2f}x faster than the maximum "
        f"over e_m of per-scenario ρ ({knapsack_seconds:.4f}s vs "
        f"{scenario_seconds:.4f}s) on the wide m=8 corpus"
    )


def test_cache_aware_routing_cuts_cold_analyses(tmp_path, bench_check):
    # Duplicate-heavy corpus, one private verdict cache per dispatch
    # group (the cluster worst case: no shared filesystem).  Strided
    # placement scatters each duplicate cluster across groups, so every
    # group pays its own cold analysis; fingerprint clustering routes
    # whole clusters to one group and pays exactly one cold analysis
    # per distinct task-set.  Counted with the real cache and analyzer,
    # not modelled.
    from repro.core.analyzer import AnalysisMethod, analyze_taskset_multi
    from repro.core.fingerprint import taskset_fingerprint
    from repro.engine.shard import ShardSpec, cluster_items_by_fingerprint
    from repro.engine.sweep import _CacheSession
    from repro.engine.vcache import VerdictCache

    m = 2
    groups = 4
    distinct = [
        generate_taskset(np.random.default_rng(SEED + i), 1.2, GROUP2)
        for i in range(6)
    ]
    rng = np.random.default_rng(SEED)
    assignment = [int(rng.integers(len(distinct))) for _ in range(48)]
    tasksets = [distinct[i] for i in assignment]
    fingerprints = [taskset_fingerprint(taskset) for taskset in tasksets]

    def cold_analyses(grouping, root):
        cold = 0
        results = {}
        for index, items in enumerate(grouping):
            with VerdictCache(root / f"g{index}", mode="readwrite") as cache:
                session = _CacheSession(cache)
                for item in items:
                    results[item] = analyze_taskset_multi(
                        tasksets[item], m,
                        methods=[AnalysisMethod.FP_IDEAL],
                        cache=session,
                    )
                cold += session.misses
        return cold, results

    strided = [
        list(ShardSpec(index, groups).items(len(tasksets)))
        for index in range(groups)
    ]
    clustered = cluster_items_by_fingerprint(fingerprints, groups)
    strided_cold, strided_results = cold_analyses(strided, tmp_path / "s")
    clustered_cold, clustered_results = cold_analyses(
        clustered, tmp_path / "c"
    )

    assert clustered_results == strided_results  # routing changes nothing
    assert clustered_cold == len(distinct)  # one cold per distinct set
    ratio = strided_cold / clustered_cold
    _record(
        "cache_routing",
        {
            "items": len(tasksets),
            "distinct": len(distinct),
            "groups": groups,
            "strided_cold": strided_cold,
            "clustered_cold": clustered_cold,
            "ratio": round(ratio, 2),
            "floor": 2.0,
        },
        check=bench_check,
    )
    assert ratio >= 2.0, (
        f"cache-aware routing saves only {ratio:.2f}x cold analyses "
        f"({clustered_cold} vs {strided_cold} over {len(tasksets)} "
        "items); fingerprint clustering has regressed"
    )
