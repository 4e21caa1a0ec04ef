"""Per-layer tracing from outside ``src/``: wrappers around public functions.

:class:`Tracer` installs a wrapper around each function listed in
:data:`SPANS` and :data:`COUNTERS`.  A function is patched everywhere its
callers bound it: on its class for methods, and in every loaded ``repro``
module that holds a reference to it for module functions (``from x import
f`` copies the reference).  Install the tracer only after a warm-up pass,
so every module that binds a target is already loaded.

A span records its layer, start, end, parent span and the request it
belongs to.  Self time is a span's duration minus the time covered by its
children.  A call into the layer already on top of the stack (``is_stable``
calling ``drift``, one check calling another) is folded into the running
span.  Per-event functions (``next_interarrival``, the simulator's arrival
handler) are counted, never timed.

:data:`MOVES` maps every per-layer metric to the end-to-end metric it
should move, on which workload.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

now = time.perf_counter


# ----------------------------------------------------------------------
# What each per-layer metric should move
# ----------------------------------------------------------------------
#: Per-layer metric -> the end-to-end metric it should move, on which
#: workload.  BENCHMARK.json names the metrics and gives their units; this
#: map is the part it has no place for.  On policy_sweep req_p50_s and
#: req_p90_s are the curve latencies, on job_queue the job latencies; the
#: throughputs are one pass's work over wall_s.
MOVES = {
    "import.total_s": "setup_s on all; wall_s on paper_cli",
    "import.scipy_s": "setup_s on all; wall_s on paper_cli",
    "import.networkx_s": "setup_s on all; wall_s on paper_cli",
    "import.repro_s": "setup_s on all; wall_s on paper_cli",
    "processes.fitting.calls": "req_p50_s on job_queue; setup_s",
    "processes.fitting.busy_s": "req_p50_s on job_queue; setup_s",
    "processes.map.scale_calls": "req_p50_s on job_queue and policy_sweep",
    "processes.map.scale_busy_s": "req_p50_s on job_queue and policy_sweep",
    "processes.sampling.bulk_draws": "wall_s on paper_cli",
    "processes.sampling.bulk_busy_s": "wall_s on paper_cli",
    "processes.sampling.stream_draws": "wall_s on sim_validation",
    "core.blocks.calls": "req_p50_s, wall_s on policy_sweep; req_p90_s on job_queue",
    "core.blocks.busy_s": "req_p50_s, wall_s on policy_sweep; req_p90_s on job_queue",
    "core.metrics.busy_s": "req_p50_s on policy_sweep",
    "core.batched.busy_s": "req_p90_s on job_queue",
    "core.batched.groups": "req_p90_s on job_queue",
    "qbd.stability.calls": "req_p50_s on policy_sweep; req_p90_s on job_queue",
    "qbd.stability.busy_s": "req_p50_s on policy_sweep; req_p90_s on job_queue",
    "qbd.rmatrix.calls": "req_p90_s, wall_s on policy_sweep",
    "qbd.rmatrix.busy_s": "req_p90_s, wall_s on policy_sweep",
    "qbd.rmatrix.iterations": "req_p90_s, wall_s on policy_sweep",
    "qbd.rmatrix.escalations": "req_p90_s, wall_s on policy_sweep",
    "qbd.boundary.busy_s": "req_p90_s on policy_sweep",
    "qbd.stationary.busy_s": "req_p90_s on policy_sweep",
    "qbd.batched.items": "req_p90_s on job_queue",
    "qbd.batched.busy_s": "req_p90_s on job_queue",
    "qbd.batched.fallbacks": "req_p90_s on job_queue",
    "qbd.batched.kernel_share": "req_p90_s on job_queue",
    "contracts.calls": "req_p50_s on policy_sweep; req_p90_s on job_queue",
    "contracts.busy_s": "req_p50_s on policy_sweep; req_p90_s on job_queue",
    "engine.points": "req_p50_s on job_queue",
    "engine.cache.hits": "req_p50_s on job_queue",
    "engine.cache.misses": "req_p50_s on job_queue",
    "engine.cache.hit_ratio": "req_p50_s on job_queue (0 on policy_sweep: no cache)",
    "engine.cache.get_busy_s": "req_p50_s on job_queue",
    "engine.cache.put_busy_s": "req_p50_s on job_queue",
    "experiments.trace_figure_busy_s": "wall_s on paper_cli",
    "experiments.solver_figures_busy_s": "wall_s on paper_cli",
    "experiments.render.busy_s": "wall_s on paper_cli; req_p50_s on job_queue",
    "jobs.submit.busy_s": "req_p50_s, wall_s on job_queue",
    "jobs.claim.busy_s": "req_p50_s, wall_s on job_queue",
    "jobs.store.writes_per_job": "req_p50_s, wall_s on job_queue",
    "jobs.store.write_busy_s": "req_p50_s, wall_s on job_queue",
    "jobs.store.reads_per_job": "req_p50_s, wall_s on job_queue",
    "jobs.overhead_s": "req_p50_s, wall_s on job_queue",
    "sim.runs": "wall_s on sim_validation",
    "sim.busy_s": "wall_s on sim_validation",
    "sim.arrivals": "wall_s on sim_validation",
    "host.probe_s": "diagnostic only: separates host drift",
    "host.blas_threads": "diagnostic only: must read 1",
    "trace.passes": "traced passes the table covers",
    "trace.overhead_share": "traced minus untraced pass time, as a share of untraced",
}


# ----------------------------------------------------------------------
# Result observers: counts read from what a traced function returns
# ----------------------------------------------------------------------
def _observe_bulk(tracer, args, kwargs, result):
    tracer.counts["processes.sampling.bulk_draws"] += len(result)


def _observe_groups(tracer, args, kwargs, result):
    if isinstance(result, tuple) and len(result) == 2:
        tracer.counts["core.batched.groups"] += len(result[1])


def _observe_solve_stats(tracer, args, kwargs, result):
    stats = getattr(result, "solve_stats", None)
    if stats is None:
        return
    tracer.counts["qbd.rmatrix.iterations"] += int(stats.iterations)
    if stats.fallbacks or stats.degraded:
        tracer.counts["qbd.rmatrix.escalations"] += 1


def _observe_batched_report(tracer, args, kwargs, result):
    if isinstance(result, tuple) and len(result) == 2:
        report = result[1]
        tracer.counts["qbd.batched.items"] += int(report.batch_size)
        tracer.counts["qbd.batched.fallbacks"] += len(report.fallbacks)
        tracer.counts["qbd.rmatrix.iterations"] += int(report.iterations)


def _observe_cache_get(tracer, args, kwargs, result):
    key = "engine.cache.misses" if result is None else "engine.cache.hits"
    tracer.counts[key] += 1


def _figure_layer(args, kwargs):
    name = args[0] if args else kwargs.get("name")
    return "experiments.trace_figure" if name == "fig1" else "experiments.solver_figures"


#: (layer, "module:qualname", observer).  A layer may be a function of the
#: call's arguments.
SPANS = (
    ("processes.fitting", "repro.workloads.paper:WorkloadSpec.fit", None),
    ("processes.map.scale",
     "repro.processes.map_process:MarkovianArrivalProcess.scaled_to_utilization", None),
    ("processes.sampling.bulk",
     "repro.processes.sampling:MAPSampler.interarrival_times", _observe_bulk),
    ("core.blocks", "repro.core.blocks:build_qbd", None),
    ("core.metrics", "repro.core.metrics:compute_metrics", None),
    ("core.batched", "repro.core.batched:solve_models_batched", _observe_groups),
    ("qbd.stability", "repro.qbd.rmatrix:drift", None),
    ("qbd.stability", "repro.qbd.rmatrix:is_stable", None),
    ("qbd.rmatrix", "repro.qbd.rmatrix:r_matrix", None),
    ("qbd.boundary", "repro.qbd.boundary:solve_boundary", None),
    ("qbd.stationary", "repro.qbd.stationary:solve_qbd", _observe_solve_stats),
    ("qbd.batched", "repro.qbd.batched:solve_qbd_batched", _observe_batched_report),
    ("engine.cache.get", "repro.engine.cache:SolveCache.get", _observe_cache_get),
    ("engine.cache.put", "repro.engine.cache:SolveCache.put", None),
    (_figure_layer, "repro.experiments.runner:execute_figure", None),
    ("experiments.render", "repro.experiments.render:render_result", None),
    ("jobs.submit", "repro.jobs.service:JobService.submit_figure", None),
    ("jobs.claim", "repro.jobs.repository:JobRepository.claim", None),
    ("jobs.store.write", "repro.jobs.repository:JobRepository.update", None),
    ("jobs.store.read", "repro.jobs.repository:JobRepository.get", None),
    ("sim.run", "repro.sim.fgbg:FgBgSimulator.run", None),
)

#: Every public check of repro.contracts.checks is one "contracts" span.
CONTRACTS_MODULE = "repro.contracts.checks"

#: (counter, "module:qualname", increment(args) or None for 1, layer whose
#: open span suppresses the count).
COUNTERS = (
    ("processes.sampling.stream_draws",
     "repro.processes.sampling:MAPSampler.next_interarrival", None,
     "processes.sampling.bulk"),
    ("sim.arrivals", "repro.sim.fgbg:_Run._on_arrival", None, None),
    ("engine.points", "repro.engine.stats:EngineStats.add", None, None),
    ("engine.points", "repro.engine.stats:EngineStats.extend",
     lambda args, kwargs: len(args[1]), None),
)


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
@dataclass
class _Frame:
    span_id: int
    layer: str
    start: float
    child: float = 0.0


@dataclass
class LayerTime:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Tracer:
    """Spans, self times and counts of one traced stretch of a run."""

    stack: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    layers: dict = field(default_factory=lambda: defaultdict(LayerTime))
    counts: Counter = field(default_factory=Counter)
    request: str | None = None
    missing: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _next_id: int = 0

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, layer, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            stack = tracer.stack
            if stack and stack[-1].layer == name:
                return fn(*args, **kwargs)
            frame = _Frame(tracer._next_id, name, now())
            tracer._next_id += 1
            parent = stack[-1].span_id if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - frame.start
                stat = tracer.layers[name]
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame.child
                if stack:
                    stack[-1].child += duration
                tracer.spans.append(
                    (frame.span_id, parent, name, frame.start, end, tracer.request)
                )
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, counter, fn, increment, unless_in):
        counts = self.counts
        stack = self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if unless_in is None or not stack or stack[-1].layer != unless_in:
                counts[counter] += 1 if increment is None else increment(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------
    def _patch(self, target: str, make_wrapper) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        wrapped = make_wrapper(original)
        if path:  # a method: patch its class (None: it was inherited)
            self._patches.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapped)
            return
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def watch(self, target: str, callback) -> None:
        """Patch ``target`` to hand ``(args, kwargs, result)`` to ``callback``."""

        def make(fn):
            @functools.wraps(fn)
            def watched(*args, **kwargs):
                result = fn(*args, **kwargs)
                callback(args, kwargs, result)
                return result

            return watched

        self._patch(target, make)

    def install(self) -> None:
        for layer, target, observe in SPANS:
            self._patch(target, lambda fn, l=layer, o=observe: self._span_wrapper(l, fn, o))
        contracts = importlib.import_module(CONTRACTS_MODULE)
        for name in contracts.__all__:
            if name.startswith(("check_", "certify_")):
                self._patch(
                    f"{CONTRACTS_MODULE}:{name}",
                    lambda fn: self._span_wrapper("contracts", fn, None),
                )
        for counter, target, increment, unless_in in COUNTERS:
            self._patch(
                target,
                lambda fn, c=counter, i=increment, u=unless_in: self._count_wrapper(c, fn, i, u),
            )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- results --------------------------------------------------------
    def metrics(self, jobs: int, job_latency_s: float) -> dict[str, float]:
        """The per-layer metrics this tracer can compute (see MOVES)."""
        t, c = self.layers, self.counts
        hits, misses = c["engine.cache.hits"], c["engine.cache.misses"]
        batched_total = t["core.batched"].total_s
        figures_total = (
            t["experiments.trace_figure"].total_s + t["experiments.solver_figures"].total_s
        )
        per_job = (lambda x: x / jobs) if jobs else (lambda x: 0.0)
        return {
            "processes.fitting.calls": t["processes.fitting"].calls,
            "processes.fitting.busy_s": t["processes.fitting"].self_s,
            "processes.map.scale_calls": t["processes.map.scale"].calls,
            "processes.map.scale_busy_s": t["processes.map.scale"].self_s,
            "processes.sampling.bulk_draws": c["processes.sampling.bulk_draws"],
            "processes.sampling.bulk_busy_s": t["processes.sampling.bulk"].self_s,
            "processes.sampling.stream_draws": c["processes.sampling.stream_draws"],
            "core.blocks.calls": t["core.blocks"].calls,
            "core.blocks.busy_s": t["core.blocks"].self_s,
            "core.metrics.busy_s": t["core.metrics"].self_s,
            "core.batched.busy_s": t["core.batched"].self_s,
            "core.batched.groups": c["core.batched.groups"],
            "qbd.stability.calls": t["qbd.stability"].calls,
            "qbd.stability.busy_s": t["qbd.stability"].self_s,
            "qbd.rmatrix.calls": t["qbd.rmatrix"].calls,
            "qbd.rmatrix.busy_s": t["qbd.rmatrix"].self_s,
            "qbd.rmatrix.iterations": c["qbd.rmatrix.iterations"],
            "qbd.rmatrix.escalations": c["qbd.rmatrix.escalations"],
            "qbd.boundary.busy_s": t["qbd.boundary"].self_s,
            "qbd.stationary.busy_s": t["qbd.stationary"].self_s,
            "qbd.batched.items": c["qbd.batched.items"],
            "qbd.batched.busy_s": t["qbd.batched"].self_s,
            "qbd.batched.fallbacks": c["qbd.batched.fallbacks"],
            "qbd.batched.kernel_share": (
                t["qbd.batched"].total_s / batched_total if batched_total else 0.0
            ),
            "contracts.calls": t["contracts"].calls,
            "contracts.busy_s": t["contracts"].self_s,
            "engine.points": c["engine.points"],
            "engine.cache.hits": hits,
            "engine.cache.misses": misses,
            "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.cache.get_busy_s": t["engine.cache.get"].self_s,
            "engine.cache.put_busy_s": t["engine.cache.put"].self_s,
            "experiments.trace_figure_busy_s": t["experiments.trace_figure"].total_s,
            "experiments.solver_figures_busy_s": t["experiments.solver_figures"].total_s,
            "experiments.render.busy_s": t["experiments.render"].self_s,
            "jobs.submit.busy_s": t["jobs.submit"].self_s,
            "jobs.claim.busy_s": t["jobs.claim"].self_s,
            "jobs.store.writes_per_job": per_job(t["jobs.store.write"].calls),
            "jobs.store.write_busy_s": t["jobs.store.write"].self_s,
            "jobs.store.reads_per_job": per_job(t["jobs.store.read"].calls),
            "jobs.overhead_s": per_job(job_latency_s - figures_total),
            "sim.runs": t["sim.run"].calls,
            "sim.busy_s": t["sim.run"].self_s,
            "sim.arrivals": c["sim.arrivals"],
        }
