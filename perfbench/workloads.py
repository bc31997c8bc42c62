"""The benchmark's workloads: which job each one runs, and how.

Plain data, importable without ``repro`` on the path: ``run.py`` never
imports the program, only the repetition processes it spawns
(``rep.py``) do.
"""

from __future__ import annotations

#: ``shape`` is ``inline`` (one serial ``Session.run``) or ``orchestrated``
#: (``orchestrate(plan_from_jobspec(job))`` over a ``LocalBackend``).
#: ``cache`` is the verdict-cache mode of the measured run; ``read``
#: reads a directory that an unmeasured prefill process filled first.
#: ``expect`` lists per-layer counts the traced pass must reproduce: the
#: split each workload was chosen to show.
WORKLOADS: dict[str, dict] = {
    "fig2-m8-cold": {
        "kind": "figure2", "m": 8, "n_tasksets": 60,
        "shape": "inline", "cache": "readwrite",
        "expect": {"vcache.hits": 0},
    },
    "fig2-m8-warm": {
        "kind": "figure2", "m": 8, "n_tasksets": 60,
        "shape": "inline", "cache": "read",
        "expect": {"vcache.misses": 0, "vcache.put_calls": 0,
                   "analyzer.lanes_computed": 0, "vcache.bytes_written": 0},
    },
    "group2-m16-cold": {
        "kind": "group2", "m": 16, "n_tasksets": 12,
        "shape": "inline", "cache": "off",
        "expect": {"fingerprint.calls": 0, "vcache.get_calls": 0},
    },
    "fig2-m4-orch": {
        "kind": "figure2", "m": 4, "n_tasksets": 20,
        "shape": "orchestrated", "cache": "off", "slots": 2, "shards": 4,
        "expect": {"orchestrator.relaunches": 0, "backends.launches": 4},
    },
}


def job_payload(workload: str, seed: int, **execution) -> dict:
    """The JobSpec JSON of ``workload`` at ``seed``, serial, with
    ``execution`` fields layered over the defaults."""
    spec = WORKLOADS[workload]
    return {
        "version": 1,
        "workload": {
            "kind": spec["kind"],
            "m": spec["m"],
            "n_tasksets": spec["n_tasksets"],
            "seed": seed,
        },
        "execution": {"jobs": 1, **execution},
    }
