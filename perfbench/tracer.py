"""Spans around the calls into each layer, for the benchmark's traced pass.

:meth:`Tracer.install` rebinds each layer's entry point at the name
its callers look it up by (``sweep.py`` imports ``generate_taskset``
by name, so the wrapper replaces ``repro.engine.sweep.generate_taskset``)
with a wrapper that records a span ``[name, start, end, parent]``.
Spans stay in memory; :meth:`Tracer.write` saves them once, at exit.

A span's *busy* time is its duration; its *self* time is its duration
minus the durations of its direct children.  The program itself is not
changed: only the bindings inside this process are.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        #: ``[name, start, end, parent span index or -1]`` per call.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._launched: dict[int, float] = {}
        self.shard_seconds: list[float] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][1:3] = [start, time.perf_counter()]
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str | None, count=None) -> None:
        """Rebind ``owner.attr``; ``name=None`` counts without a span.

        ``count(args, result)`` runs after each call that returned.
        """
        original = getattr(owner, attr)
        span = self.span

        if name is None:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                result = original(*args, **kwargs)
                count(args, result)
                return result
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with span(name):
                    result = original(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result

        setattr(owner, attr, traced)

    # ------------------------------------------------------------------
    def install(self) -> None:
        import repro.core.analyzer as analyzer
        import repro.core.blocking as blocking
        import repro.core.interference as interference
        import repro.core.workload as workload
        import repro.engine.backends as backends
        import repro.engine.livemerge as livemerge
        import repro.engine.registry as registry
        import repro.engine.store as store
        import repro.engine.sweep as sweep
        import repro.engine.vcache as vcache

        counts = self.counts

        def generated(args, taskset):
            counts["generator.tasks"] += len(taskset)
            counts["generator.nodes"] += sum(len(task.graph) for task in taskset)

        def looked_up(args, verdict):
            counts["vcache.misses" if verdict is None else "vcache.hits"] += 1

        def computed(args, result):
            counts["analyzer.lanes_computed"] += len(args[0])

        def mu_computed(args, result):
            counts["mu.computed"] += 1

        def launched(args, proc):
            counts["backends.launches"] += 1
            self._launched[proc.pid] = time.perf_counter()

        def polled(args, code):
            if code is not None and args[1].pid in self._launched:
                began = self._launched.pop(args[1].pid)
                self.shard_seconds.append(time.perf_counter() - began)

        self.wrap(sweep, "generate_taskset", "generator", generated)
        self.wrap(vcache, "taskset_fingerprint", "fingerprint")
        self.wrap(vcache.VerdictCache, "get", "vcache.get", looked_up)
        self.wrap(vcache.VerdictCache, "put", "vcache.put")
        self.wrap(sweep, "analyze_taskset_multi_batch", "analyzer")
        # The lanes the verdict cache did not answer; counted, not a span,
        # so the analyzer's self time keeps its own bookkeeping.
        self.wrap(analyzer, "_compute_multi_batch", None, computed)
        self.wrap(analyzer, "lp_ilp_deltas", "blocking.lp_ilp")
        self.wrap(analyzer, "lp_max_deltas", "blocking.lp_max")
        self.wrap(analyzer, "response_time_bounds_batch", "rta")
        self.wrap(interference.InterferenceLanes, "interference_rows", "interference")
        self.wrap(blocking, "mu_array_shared", "mu")
        self.wrap(workload, "mu_array", None, mu_computed)
        self.wrap(blocking, "rho_assignment", "rho")
        self.wrap(backends.LocalBackend, "launch", None, launched)
        self.wrap(backends.LocalBackend, "poll", None, polled)
        self.wrap(livemerge.LiveMerger, "poll", "livemerge.poll")
        self.wrap(registry, "merge_artifacts", "shard.merge")
        self.wrap(store, "publish_artifacts", "store.publish")

    # ------------------------------------------------------------------
    def layers(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counts."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - children[index]

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        counts = self.counts
        return {
            "generator.calls": calls["generator"],
            "generator.busy_s": busy["generator"],
            "generator.tasks": counts["generator.tasks"],
            "generator.nodes": counts["generator.nodes"],
            "fingerprint.calls": calls["fingerprint"],
            "fingerprint.busy_s": busy["fingerprint"],
            "vcache.get_calls": calls["vcache.get"],
            "vcache.hits": counts["vcache.hits"],
            "vcache.misses": counts["vcache.misses"],
            "vcache.hit_ratio": ratio(counts["vcache.hits"], calls["vcache.get"]),
            "vcache.get_busy_s": busy["vcache.get"],
            "vcache.put_calls": calls["vcache.put"],
            "vcache.put_busy_s": busy["vcache.put"],
            "analyzer.calls": calls["analyzer"],
            "analyzer.lanes_computed": counts["analyzer.lanes_computed"],
            "analyzer.busy_s": busy["analyzer"],
            "analyzer.self_s": own["analyzer"],
            "mu.calls": calls["mu"],
            "mu.computed": counts["mu.computed"],
            "mu.memo_hit_ratio": ratio(calls["mu"] - counts["mu.computed"], calls["mu"]),
            "mu.busy_s": busy["mu"],
            "blocking.lp_ilp_calls": calls["blocking.lp_ilp"],
            "blocking.lp_ilp_busy_s": busy["blocking.lp_ilp"],
            "blocking.lp_ilp_self_s": own["blocking.lp_ilp"],
            "blocking.lp_max_busy_s": busy["blocking.lp_max"],
            "rho.calls": calls["rho"],
            "rho.busy_s": busy["rho"],
            "rta.calls": calls["rta"],
            "rta.busy_s": busy["rta"],
            "rta.self_s": own["rta"],
            "interference.kernel_calls": calls["interference"],
            "interference.busy_s": busy["interference"],
            "session.run_s": busy["session.run"],
            # The session's self time: its duration minus the top-level
            # layer spans (generator, analyzer) directly under it.
            "session.unattributed_s": own["session.run"],
            "backends.launches": counts["backends.launches"],
            "backends.shard_s_p50": (
                statistics.median(self.shard_seconds) if self.shard_seconds else 0.0
            ),
            "livemerge.polls": calls["livemerge.poll"],
            "livemerge.busy_s": busy["livemerge.poll"],
            "shard.merge_s": busy["shard.merge"],
            "orchestrator.run_s": busy["orchestrator.run"],
            "store.publish_s": busy["store.publish"],
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }))
