"""End-to-end benchmark of the schedulability sweeps.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2-m8-cold --seed 2016 --seconds 20 --trace 0

One run: set up (a serial cache-off reference run, and for the warm
workload a cache prefill, both unmeasured), then repeat the workload,
each repetition in a fresh interpreter, until ``--seconds`` have passed
(at least three times).  Every repetition's CSV must equal the
reference byte for byte and its verdict-cache counts must repeat.
``--trace 1`` adds two traced passes whose counts must agree exactly,
and prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result: ``{"correct",
"attempted", "failed", "metrics"}``.  Each run also appends its raw
repetitions and a host-speed probe to ``.perfbench_work/runs.jsonl``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3
#: A run kills whatever repetition is still going after this many seconds.
DEADLINE_S = 170.0


class RunFailed(Exception):
    """A repetition crashed, timed out, or failed its output check."""


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: run metadata, never a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def spawn(args: list[str], deadline: float) -> dict:
    """Run ``rep.py`` once; its record plus set-up time and CPU time."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *args],
        cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"repetition {args} ran past the run's deadline")
    finally:
        try:  # shard processes a crashed repetition left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RunFailed(f"repetition {args} exited {proc.returncode}:\n{err[-3000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    record["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return record


def end_to_end(reps: list[dict], spec: dict) -> dict[str, float]:
    slots = spec.get("slots", 0)
    per_rep = {
        "items_per_s": [r["items"] / r["run_s"] for r in reps],
        "item_ms_p50": [r["item_ms_p50"] for r in reps],
        "item_ms_p90": [r["item_ms_p90"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        # The shards of the orchestrated workload run ``slots`` at a time.
        "peak_rss_mb": [(r["rss_kb"] + slots * r["children_rss_kb"]) / 1024 for r in reps],
    }
    return {name: statistics.median(values) for name, values in per_rep.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.monotonic()
    deadline = run_start + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    spec = WORKLOADS[args.workload]

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    warm_cache = work / "warm-cache"
    attempted = failed = 0
    reps: list[dict] = []
    traced: list[dict] = []
    probe = {"before_s": host_probe()}
    error = None

    def check(record: dict, reference: bytes) -> None:
        nonlocal attempted, failed
        attempted += record["items"] + record.get("launches", 0) + 1
        failed += record.get("relaunches", 0)
        problems = []
        if Path(record["csv"]).read_bytes() != reference:
            problems.append("CSV differs from the serial cache-off reference")
        counts = (record["hits"], record["misses"])
        first = (reps + traced + [record])[0]
        if counts != (first["hits"], first["misses"]):
            problems.append(f"cache hits/misses {counts} != {first['hits'], first['misses']}")
        if spec["cache"] != "off" and sum(counts) != record["items"]:
            problems.append(f"cache saw {sum(counts)} lookups for {record['items']} items")
        if problems:
            failed += 1
            raise RunFailed("; ".join(problems))

    try:
        ref = spawn([*base, "--mode", "reference", "--dir", str(work / "reference")], deadline)
        reference = Path(ref["csv"]).read_bytes()
        cache_args = []
        if spec["cache"] == "read":
            cache_args = ["--cache-dir", str(warm_cache)]
            fill = spawn([*base, "--mode", "prefill", "--dir", str(work / "prefill"),
                          *cache_args], deadline)
            if Path(fill["csv"]).read_bytes() != reference:
                raise RunFailed("prefill CSV differs from the reference")
        # Repeat while one more repetition still ends inside --seconds.
        measure_start = time.monotonic()
        while len(reps) < MIN_REPS or (
            time.monotonic() - measure_start
            + (time.monotonic() - measure_start) / len(reps) <= args.seconds
        ):
            record = spawn([*base, "--mode", "timed", "--dir", str(work / f"rep{len(reps)}"),
                            *cache_args], deadline)
            check(record, reference)
            reps.append(record)
        if args.trace:
            for index in range(2):
                spans = WORK / "spans" / f"{args.workload}-pass{index + 1}.json"
                record = spawn([*base, "--mode", "traced", "--dir", str(work / f"traced{index}"),
                                "--spans", str(spans), *cache_args], deadline)
                check(record, reference)
                traced.append(record)
            first, second = (t["layers"] for t in traced)
            for name, unit in units.items():
                if unit == "count" and name != "livemerge.polls" and first.get(name) != second.get(name):
                    failed += 1
                    raise RunFailed(f"{name} differs between traced passes: "
                                    f"{first.get(name)} != {second.get(name)}")
            for name, value in spec["expect"].items():
                if first[name] != value:
                    failed += 1
                    raise RunFailed(f"traced {name} = {first[name]}, expected {value}")
    except RunFailed as exc:
        error = str(exc)
        failed = max(failed, 1)
        attempted = max(attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe["after_s"] = host_probe()

    metrics: dict[str, float] = {}
    if error is None:
        if args.trace:
            values = {
                name: statistics.median(t["layers"][name] for t in traced)
                for name in traced[0]["layers"]
            }
            untraced = statistics.median(r["run_s"] for r in reps)
            values["trace.overhead_s"] = statistics.median(t["run_s"] for t in traced) - untraced
        else:
            values = end_to_end(reps, spec)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    with (WORK / "runs.jsonl").open("a") as log:
        log.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "host_probe": probe, "error": error, "reps": reps, "traced": traced,
            "wall_s": time.monotonic() - run_start,
        }) + "\n")
    print(f"perfbench: host probe {probe['before_s']:.3f}s before, "
          f"{probe['after_s']:.3f}s after; {len(reps)} timed repetitions", file=sys.stderr)
    if error is not None:
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": error is None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
