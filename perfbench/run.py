"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload policy_sweep --seed 7 --seconds 18 --trace 0

``--workload all`` runs every workload untraced and then traced, printing
each table; it exits nonzero if any run could not finish or any output
failed its check.

Workloads (``README.md`` says why each exists and gives its input sizes):
``paper_cli``, ``policy_sweep``, ``job_queue``, ``sim_validation``.  Each is
a closed loop with one client and at most one child process at a time.
``BENCHMARK.json`` names the metrics and their units; this script reads
them from there.

``--trace 0`` reports the end-to-end metrics, measured untraced, in
*reference seconds*: wall time scaled by the host's speed, which the
speedometer of ``speed.py`` measures inside each process doing the work.
On the shared VM the benchmark was built on, a core's speed changes by
~1.5x every few seconds and raw timings spread 7-52% over ten seeds;
scaled, they spread 2-10%.  The table also prints the raw
medians and the host's median slowdown.

=============  =====  ======================================================
metric         unit   meaning
=============  =====  ======================================================
wall_s         s      median over the timed passes of one pass (paper_cli:
                      one fresh ``python -m repro.experiments all``)
setup_s        s      median of several cold starts, from a fresh interpreter
                      until the first request can be issued (paper_cli:
                      ``python -m repro.experiments --help``)
peak_rss_mb    MB     peak RSS of the process doing the work (paper_cli:
                      median over the CLI processes)
req_p50_s      s      median latency over every timed request (curve_p50_s
                      on policy_sweep, job_p50_s on job_queue)
req_p90_s      s      90th percentile of the same, nearest rank (curve_p90_s,
                      job_p90_s)
=============  =====  ======================================================

The issue's throughputs (``solves_per_s``, ``jobs_per_s``,
``sim_arrivals_per_s``) are one pass's work over ``wall_s``; they are
printed in the table, not reported again as metrics.  Failed operations are
reported as ``failed`` out of ``attempted`` in the result line
(``failed_share`` in the table); any failure or failed check makes
``correct`` false.

``--trace 1`` runs a fixed number of passes with wrappers installed around
each layer's public functions (``tracing.py``) and reports the per-layer
table, including import times from ``python -X importtime`` and the
tracing overhead.  It also writes ``.perfbench/trace-<workload>.json`` with
the table and every span.

Noise controls: BLAS/OpenMP threads fixed at 1 in every workload process;
times scaled by the measured host speed; medians over many requests and
several cold starts; no sleep or poll on a timed path; the warm-up pass is
checked but not timed; a fixed host probe (40x40 solves, outside the
repository) runs at the start and end of each run and is printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# Fixed before NumPy loads, so the host probe below runs single-threaded too.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import loads  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Cold starts per run whose median is ``setup_s``.
SETUP_STARTS = 5
#: Runs of ``python -X importtime`` whose medians are the import.* metrics.
IMPORT_RUNS = 3
#: paper_cli runs at least this many fresh CLI processes, however slow.
CLI_PASSES = 2
#: Hard limit on any one child process.
CHILD_TIMEOUT_S = 150.0

#: Printed beside a metric: the issue's name for it on a workload.
ALIASES = {
    "policy_sweep": {"req_p50_s": "curve_p50_s", "req_p90_s": "curve_p90_s"},
    "job_queue": {"req_p50_s": "job_p50_s", "req_p90_s": "job_p90_s"},
}
#: Printed under each workload: the issue's throughput, one pass's work
#: over wall_s, and what the work counts.
THROUGHPUT = {
    "paper_cli": ("figures_per_s", "figures"),
    "policy_sweep": ("solves_per_s", "model points solved"),
    "job_queue": ("jobs_per_s", "jobs"),
    "sim_validation": ("sim_arrivals_per_s", "simulated foreground jobs"),
}

FIGURE_HEADER = re.compile(r"^== (fig\d+): ")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def load_spec() -> dict:
    """BENCHMARK.json: workloads, and the name, unit and direction of each metric."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """A workload process speaking the READY/RESULT protocol of child.py."""

    def __init__(self, argv: list[str]) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
        )
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def _line(self, prefix: str) -> str:
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix):]
            sys.stderr.write(line)
        raise BenchError(f"child {self.proc.args[2:]} ended before {prefix.strip()}")

    def ready(self) -> float:
        """Wait for READY; return when it came."""
        self._line("PERFBENCH-READY")
        return time.perf_counter()

    def result(self) -> dict:
        return json.loads(self._line("PERFBENCH-RESULT "))

    def close(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"child {self.proc.args[2:]} exited with {code}")

    def kill(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_child(args, mode: str, scratch: Path) -> tuple[float, dict]:
    """One child.py process: its cold start in reference seconds, and its result."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--mode", mode, "--scratch", str(scratch)]
    child = Child(argv)
    try:
        ready = child.ready()
        result = child.result()
        child.close()
    finally:
        child.kill()
    cold = ready - child.start
    if "speed_probes" in result:
        cold = speed.Timeline(result["speed_probes"]).normalise(child.start, ready)
    return cold, result


def launch(argv: list[str], probe_log: Path, **popen) -> subprocess.Popen:
    """Start ``python -m ...`` under the speedometer (see launch.py)."""
    return subprocess.Popen(
        [sys.executable, "-u", str(HERE / "launch.py"), str(probe_log), *argv],
        env=child_env(), cwd=ROOT, **popen,
    )


def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; return its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def watched(proc: subprocess.Popen) -> threading.Timer:
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    return watchdog


# ----------------------------------------------------------------------
# Workload runs
# ----------------------------------------------------------------------
class Run:
    """What a timed run measured, in reference seconds."""

    def __init__(self) -> None:
        self.cold_starts: list[float] = []
        self.walls: list[float] = []          # one per timed pass
        self.raw_walls: list[float] = []
        self.latencies: list[float] = []      # one per successful timed request
        self.raw_latencies: list[float] = []
        self.work: list[float] = []           # one per timed pass
        self.rss_mb: list[float] = []
        self.slowdowns: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.probe_s: list[float] = []
        self.blas_threads = 0
        self.traced_passes = 0
        self.missing_targets: list[str] = []

    def add_pass(self, p: dict, timeline: speed.Timeline | None, timed: bool = True) -> None:
        for r in p["requests"]:
            self.attempted += 1
            if r["error"]:
                self.errors.append(r["error"])
            elif timed:
                self.latencies.append(timeline.normalise(r["start"], r["end"]))
                self.raw_latencies.append(r["end"] - r["start"])
        if timed:
            self.walls.append(timeline.normalise(p["start"], p["end"]))
            self.raw_walls.append(p["end"] - p["start"])
            self.work.append(sum(r["work"] for r in p["requests"]))

    def metrics(self) -> dict[str, float]:
        if not self.latencies:
            raise BenchError("no request succeeded")
        return {
            "wall_s": statistics.median(self.walls),
            "setup_s": statistics.median(self.cold_starts),
            "peak_rss_mb": statistics.median(self.rss_mb),
            "req_p50_s": percentile(self.latencies, 0.5),
            "req_p90_s": percentile(self.latencies, 0.9),
        }


def cli_pass(
    checker: loads.FigureChecker, scratch: Path, index: int
) -> tuple[dict, float, speed.Timeline]:
    """One fresh ``python -m repro.experiments all``; a figure is a request.

    ``-u`` makes each figure reach the pipe as it is printed, so a figure's
    latency runs from the previous figure's output (or from the process
    start, for the first) to its own.  Returns the pass, its peak RSS and
    the timeline of its probes.
    """
    log = scratch / f"cli-{index}.json"
    start = time.perf_counter()
    proc = launch(list(loads.PaperCli.cli_args), log, stdout=subprocess.PIPE, text=True)
    watchdog = watched(proc)
    try:
        marks, lines = [], []
        for line in proc.stdout:
            match = FIGURE_HEADER.match(line)
            if match:
                marks.append((match.group(1), time.perf_counter()))
            lines.append(line)
        code, rss = reap(proc)
        end = time.perf_counter()
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    blocks = loads.split_figures("".join(lines))
    requests, previous = [], start
    for name, stamp in marks:
        error = f"exit code {code}" if code else checker.check(name, blocks[name])
        requests.append({"key": name, "start": previous, "end": stamp, "work": 1,
                         "error": error and f"{name}: {error}"})
        previous = stamp
    missing = [n for n in ("fig1",) + loads.EXACT_FIGURES if n not in blocks]
    requests += [{"key": n, "start": end, "end": end, "work": 0,
                  "error": f"{n}: missing from output"} for n in missing]
    timeline = speed.Timeline(json.loads(log.read_text()))
    return {"start": start, "end": end, "requests": requests}, rss, timeline


def cli_cold_start(scratch: Path, index: int) -> float:
    """One ``python -m repro.experiments --help``, in reference seconds."""
    log = scratch / f"help-{index}.json"
    start = time.perf_counter()
    proc = launch(list(loads.PaperCli.setup_args), log, stdout=subprocess.DEVNULL)
    watchdog = watched(proc)
    try:
        code, _ = reap(proc)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    end = time.perf_counter()
    if code != 0:
        raise BenchError(f"--help exited with {code}")
    return speed.Timeline(json.loads(log.read_text())).normalise(start, end)


def paper_cli_run(args, scratch: Path) -> Run:
    run = Run()
    run.cold_starts = [cli_cold_start(scratch, i) for i in range(SETUP_STARTS)]
    checker = loads.FigureChecker()
    run.probe_s.append(loads.host_probe_s())
    started, index = time.perf_counter(), 0
    while True:
        index += 1
        p, rss, timeline = cli_pass(checker, scratch, index)
        run.add_pass(p, timeline)
        run.rss_mb.append(rss)
        run.slowdowns.append(timeline.median_slowdown())
        left = args.seconds - (time.perf_counter() - started)
        if index >= CLI_PASSES and left < 0.5 * (p["end"] - p["start"]):
            break
    run.probe_s.append(loads.host_probe_s())
    run.blas_threads = loads.blas_threads()
    return run


def in_process_run(args, scratch: Path) -> Run:
    run = Run()
    for _ in range(SETUP_STARTS - 1):
        run.cold_starts.append(run_child(args, "setup", scratch)[0])
    cold, result = run_child(args, "run", scratch)
    run.cold_starts.append(cold)
    timeline = speed.Timeline(result["speed_probes"])
    for p in result["warmup"]:
        run.add_pass(p, timeline, timed=False)
    for p in result["passes"]:
        run.add_pass(p, timeline)
    run.errors += result["final_errors"]
    run.rss_mb.append(result["maxrss_mb"])
    run.slowdowns.append(timeline.median_slowdown())
    run.probe_s = result["probe_s"]
    run.blas_threads = result["blas_threads"]
    return run


def import_times(workload: type[loads.Workload]) -> dict[str, float]:
    """import.* metrics: medians over ``python -X importtime`` runs."""
    if workload is loads.PaperCli:
        target = list(workload.setup_args)
    else:
        target = ["-c", "import " + ", ".join(workload.imports)]
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", *target],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=child_env(), cwd=ROOT, check=True,
                              timeout=CHILD_TIMEOUT_S)
        totals = {"total": 0.0, "scipy": 0.0, "networkx": 0.0, "repro": 0.0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue  # the column header
            package = parts[2].strip().split(".")[0]
            totals["total"] += self_us
            if package in totals:
                totals[package] += self_us
        for key, value in totals.items():
            samples.setdefault(f"import.{key}_s", []).append(value / 1e6)
    return {key: statistics.median(values) for key, values in samples.items()}


def traced_run(args, scratch: Path, per_layer: list[dict]) -> tuple[Run, dict]:
    workload = loads.WORKLOADS[args.workload]
    imports = import_times(workload)
    _, result = run_child(args, "trace", scratch)
    layers = dict(imports)
    layers.update(result["layers"])
    layers["host.probe_s"] = statistics.median(result["probe_s"])
    layers["host.blas_threads"] = result["blas_threads"]
    missing = [m["name"] for m in per_layer if m["name"] not in layers]
    if missing:
        raise BenchError(f"per-layer metrics not measured: {missing}")
    OUT.mkdir(exist_ok=True)
    spans = json.loads((scratch / "spans.json").read_text())
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "table": [
            {"name": m["name"], "unit": m["unit"], "value": layers[m["name"]],
             "moves": tracing.MOVES[m["name"]]}
            for m in per_layer
        ],
        **spans,
    }))
    run = Run()
    for p in result["warmup"] + result["passes"]:
        run.add_pass(p, None, timed=False)
    run.errors += result["final_errors"]
    run.probe_s = result["probe_s"]
    run.blas_threads = result["blas_threads"]
    run.traced_passes = len(result["passes"])
    run.missing_targets = result["missing_targets"]
    return run, {m["name"]: float(layers[m["name"]]) for m in per_layer}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def report(args, why: str, run: Run, metrics: dict, units: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  why:    {why}")
    aliases = ALIASES.get(args.workload, {})
    if args.trace:
        print(f"  traced: {run.traced_passes} passes")
        for name, value in metrics.items():
            print(f"  {name:36s} {value:14.6g} {units[name]:6s} {tracing.MOVES[name]}")
        for target in run.missing_targets:
            print(f"  trace target not found: {target}")
    else:
        print(f"  timed:  {len(run.walls)} passes, {len(run.latencies)} requests; "
              f"times in reference seconds (raw median in brackets)")
        raw = {
            "wall_s": statistics.median(run.raw_walls),
            "req_p50_s": percentile(run.raw_latencies, 0.5),
            "req_p90_s": percentile(run.raw_latencies, 0.9),
        }
        for name, value in metrics.items():
            label = f"{name} ({aliases[name]})" if name in aliases else name
            extra = f"[raw {raw[name]:.4g}]" if name in raw else ""
            print(f"  {label:36s} {value:14.6g} {units[name]:6s} {extra}")
        alias, what = THROUGHPUT[args.workload]
        work = statistics.median(run.work)
        print(f"  {alias:36s} {work / metrics['wall_s']:14.6g} 1/s    "
              f"{work:g} {what} per pass / wall_s")
        print(f"  host slowdown (probe time / reference): median "
              f"{statistics.median(run.slowdowns):.3g}")
    failed = len(run.errors)
    print(f"  {'failed_share':36s} {failed / max(run.attempted, 1):14.6g} 1      "
          f"{failed} of {run.attempted} operations")
    if run.probe_s:
        print(f"  host probe: start {run.probe_s[0]:.4g} s, end "
              f"{run.probe_s[-1]:.4g} s; BLAS threads {run.blas_threads}")
    for error in run.errors[:20]:
        print(f"  FAILED: {error}")


def run_workload(args, spec: dict) -> int | None:
    """One workload run: print its table and result line; return its failures.

    Returns None when the benchmark itself could not run.
    """
    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    try:
        if args.trace:
            run, metrics = traced_run(args, scratch, group)
        else:
            if args.workload == loads.PaperCli.name:
                run = paper_cli_run(args, scratch)
            else:
                run = in_process_run(args, scratch)
            measured = run.metrics()
            metrics = {name: measured[name] for name in units}
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    report(args, why, run, metrics, units)
    failed = len(run.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*loads.WORKLOADS, "all"],
                        help="a workload, or 'all': every workload untraced, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload != "all":
        return 1 if run_workload(args, spec) is None else 0
    outcomes = [
        run_workload(
            argparse.Namespace(workload=name, seed=args.seed, seconds=args.seconds, trace=trace),
            spec,
        )
        for name in loads.WORKLOADS for trace in (0, 1)
    ]
    return 0 if all(failed == 0 for failed in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
