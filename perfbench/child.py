"""One workload process: set up, run passes, report as a JSON line.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
count fixed at 1.  Protocol on standard output: ``PERFBENCH-READY`` once
the imports and inputs are set up (the parent times the cold start up to
this line), then ``PERFBENCH-RESULT <json>`` at the end.  Modes:

* ``setup`` -- stop after set-up (an extra cold start for ``setup_s``);
* ``run`` -- a checked warm-up pass, then timed passes for ``--seconds``;
* ``trace`` -- a warm-up pass, ``K`` untraced passes, then the same number
  of passes with the tracer installed (fixed work, so counts repeat
  exactly for a seed); reports the per-layer table.

In ``setup`` and ``run`` mode the speedometer (``speed.py``) runs from the
first line to the last, and its probes go out with the result.
"""

from __future__ import annotations

import speed

# Started before the imports below, which are part of the cold start.
METER = speed.Speedometer().start() if __name__ == "__main__" else None

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import loads  # noqa: E402
import tracing  # noqa: E402


def pass_json(p: loads.Pass) -> dict:
    return {"start": p.start, "end": p.end, "requests": [asdict(r) for r in p.requests]}


def run(workload: loads.Workload, seconds: float) -> dict:
    warmup = workload.run_pass(0)
    passes = loads.timed_passes(workload.run_pass, seconds)
    return {"warmup": [pass_json(warmup)], "passes": [pass_json(p) for p in passes]}


def trace(workload: loads.Workload, spans_path: Path) -> dict:
    k = workload.trace_passes
    warmup = [workload.run_pass(0)] if workload.trace_warmup else []
    untraced = [workload.run_pass(i) for i in range(1, k + 1)]
    tracer = tracing.Tracer()
    tracer.install()
    workload.watch(tracer)
    try:
        traced = [workload.run_pass(i) for i in range(k + 1, 2 * k + 1)]
    finally:
        tracer.uninstall()
    jobs = sum(len(p.requests) for p in traced) if workload.name == "job_queue" else 0
    latency = sum(r.end - r.start for p in traced for r in p.requests)
    layers = tracer.metrics(jobs, latency)
    untraced_s = sum(p.seconds for p in untraced)
    traced_s = sum(p.seconds for p in traced)
    layers["trace.passes"] = k
    layers["trace.overhead_share"] = traced_s / untraced_s - 1.0
    spans_path.write_text(json.dumps({
        "fields": ["id", "parent", "layer", "start", "end", "request"],
        "spans": tracer.spans,
        "missing_targets": tracer.missing,
    }))
    return {
        "warmup": [pass_json(p) for p in warmup + untraced],
        "passes": [pass_json(p) for p in traced],
        "layers": layers,
        "missing_targets": tracer.missing,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args()

    workload = loads.WORKLOADS[args.workload](args.seed, args.scratch)
    workload.setup()
    print("PERFBENCH-READY", flush=True)
    if args.mode == "setup":
        print("PERFBENCH-RESULT " + json.dumps({"speed_probes": METER.stop()}), flush=True)
        return 0
    if args.mode == "trace":
        METER.stop()
    probes = [loads.host_probe_s()]
    if args.mode == "run":
        result = run(workload, args.seconds)
    else:
        result = trace(workload, args.scratch / "spans.json")
    probes.append(loads.host_probe_s())
    result.update(
        final_errors=workload.final_errors(),
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        probe_s=probes,
        blas_threads=loads.blas_threads(),
    )
    if args.mode == "run":
        result["speed_probes"] = METER.stop()
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
