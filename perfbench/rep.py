"""One repetition of a workload, in a fresh interpreter.

``run.py`` spawns this script once per repetition, so no repetition
ever runs in a process where the μ memo or the verdict-cache handles
are already warm.  Modes:

* ``reference`` -- the workload's job, inline, serial, cache off: the
  CSV every other run of the same seed must match byte for byte;
* ``prefill``   -- the warm workload's cache fill (``readwrite``),
  unmeasured;
* ``timed``     -- one measured repetition, tracing off;
* ``traced``    -- one repetition with a span around each layer call.

The last line of standard output is one JSON object with what this
repetition measured; ``ready`` is the ``time.monotonic()`` moment the
job was ready to run (imports done, job built, directories prepared).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, job_payload


def tail_ms(intervals_ms: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of per-item intervals."""
    return (
        statistics.median(intervals_ms),
        statistics.quantiles(intervals_ms, n=10, method="inclusive")[8],
    )


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_inline(job, record: dict, tracer) -> object:
    from repro.engine.session import Session
    from repro.engine.streaming import iter_stream

    ticks: list[float] = []
    session = Session(progress=lambda event: ticks.append(time.perf_counter()))
    record["ready"] = time.monotonic()
    start = time.perf_counter()
    if tracer is None:
        result = session.run(job)
    else:
        with tracer.span("session.run"):
            result = session.run(job)
    record["run_s"] = time.perf_counter() - start
    record["intervals_ms"] = [
        (b - a) * 1e3 for a, b in zip([start] + ticks, ticks)
    ]
    hits = misses = 0
    if job.execution.stream is not None:
        for line in iter_stream(job.execution.stream):
            cache = line.get("cache") if line["type"] == "chunk" else None
            if cache:
                hits += cache["hits"]
                misses += cache["misses"]
    record["hits"], record["misses"] = hits, misses
    return result


def run_orchestrated(job, spec: dict, out: Path, record: dict, tracer) -> object:
    from repro.engine.backends import LocalBackend
    from repro.engine.orchestrator import load_manifest, orchestrate, plan_from_jobspec
    from repro.engine.streaming import read_stream

    plan = plan_from_jobspec(job)
    backend = LocalBackend(spec["slots"])
    record["ready"] = time.monotonic()
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = orchestrate(plan, out, backend=backend, shards=spec["shards"])
        else:
            with tracer.span("orchestrator.run"):
                outcome = orchestrate(plan, out, backend=backend, shards=spec["shards"])
    finally:
        backend.close()
    record["run_s"] = time.perf_counter() - start
    shards = load_manifest(out)["shards"]
    record["launches"] = sum(shard["attempts"] for shard in shards)
    record["relaunches"] = record["launches"] - len(shards)
    # Per-item compute time inside the shard processes: each serial
    # shard streams one chunk line per item with its wall time.
    record["intervals_ms"] = [
        1e3 * seconds / items
        for shard in shards
        for items, seconds in read_stream(out / shard["stream"]).chunk_timings
    ]
    record["rows_added"] = outcome.publication["rows_added"]
    record["hits"] = record["misses"] = 0
    return outcome.result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True,
        choices=("reference", "prefill", "timed", "traced"),
    )
    parser.add_argument("--dir", required=True, help="this repetition's own directory")
    parser.add_argument("--cache-dir", help="the warm workload's prefilled cache")
    parser.add_argument("--spans", help="write the traced pass's spans here")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    rep_dir = Path(args.dir).resolve()
    rep_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
    begin = time.perf_counter()
    import repro.cli  # noqa: F401 -- the import every CLI call and shard pays
    import_s = time.perf_counter() - begin
    from repro.engine.jobspec import JobSpec
    from repro.engine.registry import kind_spec

    if tracer is not None:
        tracer.install()

    execution: dict = {}
    cache_dir: Path | None = None
    if args.mode == "prefill":
        cache_dir = Path(args.cache_dir).resolve()
        execution = {"cache": "readwrite", "cache_dir": str(cache_dir)}
    elif args.mode != "reference" and spec["cache"] != "off":
        cache_dir = (
            Path(args.cache_dir).resolve() if spec["cache"] == "read"
            else rep_dir / "cache"
        )
        cache_dir.mkdir(parents=True, exist_ok=True)
        execution = {
            "cache": spec["cache"], "cache_dir": str(cache_dir),
            "stream": str(rep_dir / "stream.jsonl"),
        }
    orchestrated = spec["shape"] == "orchestrated" and args.mode != "reference"
    if orchestrated:
        store = rep_dir / "store"
        store.mkdir()
        execution = {"publish": True, "store_dir": str(store)}
    job = JobSpec.from_json_dict(job_payload(args.workload, args.seed, **execution))
    cache_before = dir_bytes(cache_dir) if cache_dir is not None else 0

    record: dict = {"items": job.workload.total_items, "import_s": import_s}
    if orchestrated:
        result = run_orchestrated(job, spec, rep_dir / "orch", record, tracer)
    else:
        result = run_inline(job, record, tracer)
    record["item_ms_p50"], record["item_ms_p90"] = tail_ms(record.pop("intervals_ms"))
    csv = kind_spec(job.kind).write_csv(result, rep_dir / "result.csv")
    record["csv"] = str(csv)
    record["bytes_written"] = (
        dir_bytes(cache_dir) - cache_before if cache_dir is not None else 0
    )
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    record["rss_kb"] = own.ru_maxrss
    record["children_rss_kb"] = children.ru_maxrss
    if tracer is not None:
        layers = tracer.layers()
        layers["cli.import_s"] = import_s
        layers["vcache.bytes_written"] = record["bytes_written"]
        layers["orchestrator.relaunches"] = record.get("relaunches", 0)
        layers["store.rows_added"] = record.get("rows_added", 0)
        record["layers"] = layers
        tracer.write(Path(args.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
