"""The benchmark's four workloads: inputs made from the seed, timed passes, checks.

A *request* is the unit a user of the repository waits for: one figure
(paper_cli), one curve (policy_sweep), one figure job (job_queue) or one
simulation run (sim_validation).  A *pass* is one round of requests.
Every workload is a closed loop with one client: the next request is issued
only when the previous one has returned.

The seed chooses curve order, load offsets, job submission order and the
simulator's random streams.  The program only ever sees the generated
inputs (models, figure names, random generators), never the seed itself.

Every output is checked after its request is timed, outside the timed
region.  A request that raises, or whose output fails its check, carries an
``error`` and counts as failed.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDENS = Path(__file__).resolve().parent / "goldens"

now = time.perf_counter


@dataclass
class Request:
    """One timed request: which one it was, when it ran, its work and check.

    ``key`` names the request; the same key in another pass does the same
    work.  ``start`` and ``end`` are ``time.perf_counter`` readings, which
    every process on the host shares.
    """

    key: str
    start: float
    end: float
    work: float
    error: str | None = None


@dataclass
class Pass:
    """One pass: when the user started and stopped waiting, and its requests."""

    start: float
    end: float
    requests: list[Request]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def timed_passes(run_pass, seconds: float, min_passes: int = 1) -> list[Pass]:
    """Passes 1, 2, ... for about ``seconds``, and at least ``min_passes``.

    Another pass starts only while at least half of the last pass's time
    remains, so a run overshoots ``seconds`` by at most half a pass.
    """
    passes: list[Pass] = []
    start = now()
    while True:
        passes.append(run_pass(len(passes) + 1))
        if len(passes) >= min_passes and seconds - (now() - start) < 0.5 * passes[-1].seconds:
            return passes


def timed(call) -> tuple[float, float, object, str | None]:
    """Run ``call()``; return its start and end, its result and what it raised."""
    start = now()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - a failed request is data
        return start, now(), None, repr(exc)
    return start, now(), result, None


def checked_pass(start: float, outputs, check) -> Pass:
    """A pass from its ``(key, start, end, result, error, work)`` outputs.

    The pass ends now; ``check(key, result)`` runs after that, outside the
    timed region, and returns an error or None.  ``work`` is a number or a
    function of the result.
    """
    end = now()
    requests = []
    for key, begin, end, result, error, work in outputs:
        if error is None:
            error = check(key, result)
        if callable(work):
            work = work(result) if error is None else 0
        requests.append(Request(key, begin, end, work, error and f"{key}: {error}"))
    return Pass(start, end, requests)


# ----------------------------------------------------------------------
# The host
# ----------------------------------------------------------------------
def host_probe_s() -> float:
    """Median time of a fixed loop of 40x40 solves (host speed, not repro)."""
    rng = np.random.default_rng(0)
    a = rng.random((40, 40)) + 40 * np.eye(40)
    b = rng.random(40)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(300):
            np.linalg.solve(a, b)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_threads() -> int:
    """Threads NumPy's OpenBLAS will use (the environment's value if unknown)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))


# ----------------------------------------------------------------------
# Figure goldens (paper_cli, job_queue)
# ----------------------------------------------------------------------
#: Figures whose rendered text must be byte-identical to the goldens.
EXACT_FIGURES = ("fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                 "fig11", "fig12", "fig13")

#: Tolerance multiplier of the statistical fig1 checks: a printed ACF value,
#: a trace mean or SCV may deviate from the closed form by the bias seen
#: across calibration seeds plus this many standard deviations.
FIG1_Z = 6.0


def _load_figure_goldens() -> dict[str, str]:
    folder = GOLDENS / "figures"
    return {name: (folder / f"{name}.txt").read_text() for name in EXACT_FIGURES}


def _load_json(name: str) -> dict:
    return json.loads((GOLDENS / name).read_text())


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {i + 1}: got {a!r}, want {b!r}"
    return f"{len(got_lines)} lines, want {len(want_lines)}"


class FigureChecker:
    """Checks rendered figures against the goldens captured in ``goldens/``.

    fig2 and fig5-fig13 must match byte for byte.  fig1 samples random
    traces, so only its closed-form table must match exactly; its printed
    sample ACF is compared with the fitted MMPPs' closed-form ACF within
    the spread measured across calibration seeds.
    """

    def __init__(self) -> None:
        self.exact = _load_figure_goldens()
        self.fig1_head = (GOLDENS / "figures" / "fig1_head.txt").read_text()
        self.fig1 = _load_json("fig1_stats.json")

    def check(self, name: str, text: str) -> str | None:
        """Why ``text`` is not a right rendering of figure ``name``, or None."""
        if name == "fig1":
            return self._check_fig1(text)
        want = self.exact.get(name)
        if want is None:
            return "no golden"
        if text != want:
            return f"differs from golden at {_first_difference(text, want)}"
        return None

    def _check_fig1(self, text: str) -> str | None:
        head, sep, acf_part = text.partition("\n[ACF]\n")
        if not sep:
            return "no [ACF] section"
        if head != self.fig1_head:
            return f"table differs at {_first_difference(head, self.fig1_head)}"
        rows = acf_part.splitlines()[2:]  # skip header and rule
        workloads = self.fig1["workloads"]
        if not rows:
            return "empty ACF table"
        for row in rows:
            cells = row.split()
            if len(cells) != 1 + len(workloads):
                return f"malformed ACF row {row!r}"
            lag = int(round(float(cells[0])))
            for cell, ref in zip(cells[1:], workloads):
                error = _fig1_acf_error(float(cell), ref, lag)
                if error:
                    return f"{ref['name']}: {error}"
        return None

    def check_trace(self, index: int, trace: np.ndarray) -> str | None:
        """Check one bulk-sampled fig1 trace (mean, SCV, lag 1..k ACF)."""
        workloads = self.fig1["workloads"]
        if index >= len(workloads):
            return f"fig1: unexpected trace #{index + 1}"
        ref = workloads[index]
        trace = np.asarray(trace, dtype=float)
        if trace.shape != (self.fig1["samples"],):
            return f"fig1 {ref['name']}: trace shape {trace.shape}"
        mean = float(trace.mean())
        scv = float(trace.var() / mean**2)
        for label, value, key in (("mean", mean, "mean"), ("SCV", scv, "scv")):
            limit = abs(ref[key + "_bias"]) + FIG1_Z * ref[key + "_sd"]
            if not abs(value - ref[key]) <= limit:
                return (
                    f"fig1 {ref['name']}: trace {label} {value:.6g} vs closed "
                    f"form {ref[key]:.6g} (limit {limit:.3g})"
                )
        acf = sample_acf(trace, len(ref["acf"]))
        for lag in range(1, len(acf) + 1):
            error = _fig1_acf_error(float(acf[lag - 1]), ref, lag)
            if error:
                return f"fig1 {ref['name']}: {error}"
        return None


def _fig1_acf_error(value: float, ref: dict, lag: int) -> str | None:
    i = lag - 1
    if not 0 <= i < len(ref["acf"]):
        return f"lag {lag} outside the calibrated range"
    expected = ref["acf"][i] + ref["acf_bias"][i]
    # 1e-4 absorbs the 4-digit rounding of the rendered table.
    limit = FIG1_Z * ref["acf_sd"] + 1e-4
    if not abs(value - expected) <= limit:
        return (
            f"lag-{lag} ACF {value:.4g}, closed form {ref['acf'][i]:.4g} "
            f"(+bias {ref['acf_bias'][i]:.2g}, limit {limit:.3g})"
        )
    return None


def sample_acf(x: np.ndarray, lags: int) -> np.ndarray:
    """Biased sample ACF at lags 1..lags (the benchmark's own estimator)."""
    c = np.asarray(x, dtype=float) - float(np.mean(x))
    denom = float(c @ c)
    return np.array([float(c[:-k] @ c[k:]) / denom for k in range(1, lags + 1)])


def split_figures(stdout: str) -> dict[str, str]:
    """Rendered figures of a ``python -m repro.experiments`` run, by name.

    The CLI prints each figure followed by one blank line.
    """
    blocks: dict[str, str] = {}
    for chunk in ("\n" + stdout).split("\n== ")[1:]:
        blocks[chunk.split(":", 1)[0]] = "== " + chunk.rstrip("\n")
    return blocks


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Base class: imports, seeded inputs, passes and end-of-run checks."""

    name = ""
    #: Modules the client imports before it can issue a request.
    imports: tuple[str, ...] = ()
    #: Traced run: whether a warm-up pass precedes it, and how many passes
    #: run untraced and then traced.
    trace_warmup = True
    trace_passes = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tracer = None

    def watch(self, tracer) -> None:
        """Label the tracer's spans with the request that caused them."""
        self.tracer = tracer

    def _begin(self, index: int, label: object) -> None:
        if self.tracer is not None:
            self.tracer.request = f"pass{index}/{label}"

    def setup(self) -> None:
        """Import the client's modules and build the inputs."""
        self.modules = {m: importlib.import_module(m) for m in self.imports}

    def run_pass(self, index: int) -> Pass:  # pragma: no cover - abstract
        raise NotImplementedError

    def final_errors(self) -> list[str]:
        """Checks over the whole run (pooled statistics); empty when all pass."""
        return []


class PaperCli(Workload):
    """``python -m repro.experiments all`` as a reader of the paper runs it.

    The timed runs launch the real CLI in a fresh process (see
    ``run.py``); this class is the in-process replay used by the traced
    run, where the wrappers can see every layer.
    """

    name = "paper_cli"
    imports = ("repro.experiments.runner",)
    cli_args = ("-m", "repro.experiments", "all")
    setup_args = ("-m", "repro.experiments", "--help")
    trace_warmup = False

    def setup(self) -> None:
        super().setup()
        self.runner = self.modules["repro.experiments.runner"]
        self.figures = tuple(self.runner.ALL_FIGURES)
        self.checker = FigureChecker()
        self.traces: list[np.ndarray] = []

    def watch(self, tracer) -> None:
        """Also keep fig1's sampled traces, for their mean/SCV/ACF check."""
        super().watch(tracer)
        tracer.watch(
            "repro.workloads.traces:generate_trace",
            lambda args, kwargs, result: self.traces.append(result),
        )

    def final_errors(self) -> list[str]:
        errors = [self.checker.check_trace(i, t) for i, t in enumerate(self.traces)]
        if self.tracer is not None and len(self.traces) != len(self.checker.fig1["workloads"]):
            errors.append(f"fig1: {len(self.traces)} traces seen")
        return [e for e in errors if e]

    def run_pass(self, index: int) -> Pass:
        start, outputs = now(), []
        for name in self.figures:
            self._begin(index, name)
            outputs.append((name, *timed(lambda: self.runner.execute_figure(name)), 1))
        return checked_pass(start, outputs, self.checker.check)


#: policy_sweep grid.  X=5 is the paper's buffer (22x22 QBD blocks, a few ms
#: per point, bound by per-point Python work); X=25 gives 102x102 blocks
#: (~0.15 s per point, bound by LAPACK).  The 12 X=25 curves are a tenth of
#: the curves and about half the time, so the p90 curve latency (10 curves
#: beyond it) sits inside the X=25 group and the p50 inside the X=5 group.
SWEEP_METRICS = ("qlen_fg", "waitp_fg", "comp_bg", "qlen_bg")
SWEEP_P = (0.1, 0.3, 0.6, 0.9)
X5_LOADS = {
    "email": (0.1, 0.3, 0.5),
    "software_development": (0.2, 0.5, 0.8),
}
X5_IDLE_MULTIPLES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
X25_WORKLOAD = "software_development"
X25_LOADS = (0.5,)
X25_IDLE_MULTIPLES = (0.5, 1.0, 2.0)
#: Timed passes shift every load by a seeded offset of this magnitude, so
#: no model repeats across passes; the warm-up pass is unshifted.
LOAD_OFFSET = (0.0005, 0.002)
#: Unshifted curves must match the goldens to this relative tolerance
#: (R is solved to 1e-12; the (I-R)^-2 level sums amplify that ~1e4-fold).
SOLVER_RTOL = 1e-6
#: A shifted point may differ from the golden by SLOPE_FACTOR times the
#: change the golden records for a shift of the largest offset, scaled to
#: this pass's offset, plus the solver tolerance.
SLOPE_FACTOR = 2.0


@dataclass(frozen=True)
class Curve:
    """One curve request: a fixed policy swept over a load grid."""

    workload: str
    p: float
    idle_multiple: float
    buffer: int
    loads: tuple[float, ...]
    metric: str

    @property
    def key(self) -> str:
        return (
            f"{self.workload}/X{self.buffer}/p{self.p:g}/"
            f"w{self.idle_multiple:g}/{self.metric}"
        )


def sweep_grid() -> list[Curve]:
    """Every curve of one policy_sweep pass, in canonical order."""
    specs = [
        (workload, p, w, 5, loads)
        for workload, loads in X5_LOADS.items()
        for p in SWEEP_P
        for w in X5_IDLE_MULTIPLES
    ]
    specs += [
        (X25_WORKLOAD, p, w, 25, X25_LOADS)
        for p in SWEEP_P
        for w in X25_IDLE_MULTIPLES
    ]
    return [
        Curve(workload, p, w, buffer, loads, SWEEP_METRICS[i % len(SWEEP_METRICS)])
        for i, (workload, p, w, buffer, loads) in enumerate(specs)
    ]


def load_offset(seed: int, index: int) -> float:
    """The load shift of pass ``index``; 0 for the warm-up pass."""
    if index == 0:
        return 0.0
    rng = _rng(seed, index, 1)
    return float(rng.uniform(*LOAD_OFFSET) * rng.choice((-1.0, 1.0)))


def check_curve(values, golden: dict, offset: float) -> str | None:
    """Compare one curve with its unshifted golden (NaN positions exact).

    ``golden`` holds the unshifted ``values`` and, per load, the largest
    ``change`` of the value under a shift of +-LOAD_OFFSET[1].
    """
    want = np.array([np.nan if v is None else v for v in golden["values"]], dtype=float)
    change = np.array([np.nan if v is None else v for v in golden["change"]], dtype=float)
    got = np.asarray(values, dtype=float)
    if got.shape != want.shape:
        return f"{got.shape[0]} values, want {want.shape[0]}"
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        return f"NaN positions {np.isnan(got).tolist()}, want {np.isnan(want).tolist()}"
    limit = (
        SOLVER_RTOL * np.abs(want) + 1e-12
        + SLOPE_FACTOR * abs(offset) / LOAD_OFFSET[1] * change
    )
    for i in np.flatnonzero(~np.isnan(want)):
        if not abs(got[i] - want[i]) <= limit[i]:
            return (
                f"point {i} (load offset {offset:+.4f}): {got[i]:.8g}, golden "
                f"{want[i]:.8g} (limit {limit[i]:.3g})"
            )
    return None


class PolicySweep(Workload):
    """A capacity planner's curves through ``repro.experiments.sweeps.sweep``."""

    name = "policy_sweep"
    imports = (
        "repro.experiments.sweeps",
        "repro.core.model",
        "repro.workloads.paper",
    )

    def setup(self) -> None:
        self.build()
        self.golden = _load_json("policy_sweep.json")

    def build(self) -> None:
        """Import the client's modules and build every curve's base model."""
        super().setup()
        sweeps = self.modules["repro.experiments.sweeps"]
        model = self.modules["repro.core.model"]
        paper = self.modules["repro.workloads.paper"]
        self.sweep = sweeps.sweep
        self.axis = sweeps.utilization_axis
        arrivals = {key: paper.WORKLOADS[key].fit() for key in X5_LOADS}
        self.curves = sweep_grid()
        self.bases = [
            model.FgBgModel(
                arrival=arrivals[c.workload],
                service_rate=paper.SERVICE_RATE_PER_MS,
                bg_probability=c.p,
                bg_buffer=c.buffer,
            ).with_idle_wait_multiple(c.idle_multiple)
            for c in self.curves
        ]

    def solve(self, i: int, offset: float):
        """Curve ``i`` with every load shifted by ``offset``."""
        curve = self.curves[i]
        axis = self.axis(tuple(u + offset for u in curve.loads))
        return self.sweep(self.bases[i], axis, curve.metric).y

    def run_pass(self, index: int) -> Pass:
        offset = load_offset(self.seed, index)
        order = _rng(self.seed, index, 2).permutation(len(self.curves))
        start, outputs = now(), []
        for i in order:
            curve = self.curves[i]
            self._begin(index, curve.key)
            outputs.append((curve.key, *timed(lambda: self.solve(i, offset)), len(curve.loads)))
        return checked_pass(
            start, outputs, lambda key, values: check_curve(values, self.golden[key], offset)
        )


#: Figures one job_queue pass submits (fig1 is the CLI's trace figure and
#: is left to paper_cli).
JOB_FIGURES = EXACT_FIGURES


class JobQueue(Workload):
    """Figure jobs through the durable queue, one in flight at a time."""

    name = "job_queue"
    imports = ("repro.jobs", "repro.engine.config")
    trace_passes = 3

    def setup(self) -> None:
        super().setup()
        jobs = self.modules["repro.jobs"]
        self.open_repository = jobs.open_repository
        self.JobService = jobs.JobService
        self.JobWorker = jobs.JobWorker
        self.config = self.modules["repro.engine.config"].EngineConfig(batched=True)
        self.checker = FigureChecker()

    def run_pass(self, index: int) -> Pass:
        root = self.scratch / f"queue-{index}"
        shutil.rmtree(root, ignore_errors=True)
        outputs = []
        start = now()
        repository = self.open_repository(root)
        try:
            service = self.JobService(repository)
            worker = self.JobWorker(repository)

            def job(figure: str) -> str:
                submitted = service.submit_figure(figure, config=self.config)
                worker.run_once()
                return service.result(submitted.job_id)

            # Which of two sibling figures solves and which replays the
            # other's points depends on the order, so each pass draws its
            # own and a run pools many.
            order = _rng(self.seed, index, 3).permutation(len(JOB_FIGURES))
            for figure in (JOB_FIGURES[i] for i in order):
                self._begin(index, figure)
                outputs.append((figure, *timed(lambda: job(figure)), 1))
        finally:
            repository.close()
        done = checked_pass(start, outputs, self.checker.check)
        shutil.rmtree(root, ignore_errors=True)
        return done


#: sim_validation points: both paper workloads at a moderate and a high
#: load, p = 0.3, X = 5.  Each run simulates a fixed number of expected
#: arrivals, so every request costs about the same.
SIM_POINTS = (
    ("email", 0.15),
    ("email", 0.35),
    ("software_development", 0.3),
    ("software_development", 0.6),
)
SIM_P = 0.3
SIM_ARRIVALS = 4000
#: Random streams per point and pass.  Every pass draws new streams, so a
#: run's time does not hang on the work of a few; all streams of a run are
#: the replications of the statistical check.
SIM_STREAMS = 5
SIM_METRICS = ("fg_queue_length", "bg_queue_length", "fg_delayed_fraction",
               "bg_completion_rate")
#: Pooled check: the mean over a point's replications must lie within
#: SIM_Z standard errors of the analytic value plus its finite-horizon
#: bias.  Bias and the per-stream standard deviation are fixed numbers,
#: calibrated across seeds in ``capture_goldens.py`` and stored in
#: ``goldens/sim_reference.json``; the run under test does not set its own
#: limit.
SIM_Z = 5.0


def sim_key(workload: str, load: float) -> str:
    return f"{workload}@{load:g}"


def sim_stream(seed: int, index: int, point: int, stream: int) -> np.random.Generator:
    """The random stream of one simulator run in pass ``index``.

    Key 5 keeps these apart from the calibration streams (key 6).
    """
    return _rng(seed, 5, index, point, stream)


class SimValidation(Workload):
    """``FgBgSimulator.run`` at a few paper points, checked against the model."""

    name = "sim_validation"
    imports = ("repro.sim", "repro.core.model", "repro.workloads.paper")

    def setup(self) -> None:
        self.build()
        self.reference = _load_json("sim_reference.json")
        #: (point, pass, stream) -> the run's metrics.
        self.results: dict[tuple[int, int, int], list[float]] = {}

    def build(self) -> None:
        """Import the client's modules and build the model at each point."""
        super().setup()
        sim = self.modules["repro.sim"]
        model = self.modules["repro.core.model"]
        paper = self.modules["repro.workloads.paper"]
        arrivals = {key: paper.WORKLOADS[key].fit() for key, _ in SIM_POINTS}
        self.models = [
            model.FgBgModel(
                arrival=arrivals[workload],
                service_rate=paper.SERVICE_RATE_PER_MS,
                bg_probability=SIM_P,
            ).at_utilization(load)
            for workload, load in SIM_POINTS
        ]
        self.simulators = [sim.FgBgSimulator(m) for m in self.models]
        self.horizons = [SIM_ARRIVALS / m.arrival.mean_rate for m in self.models]

    def simulate(self, i: int, index: int, stream: int):
        return self.simulators[i].run(self.horizons[i], sim_stream(self.seed, index, i, stream))

    def run_pass(self, index: int) -> Pass:
        runs = {
            f"{sim_key(*SIM_POINTS[i])}/pass{index}/{stream}": (i, index, stream)
            for i in range(len(SIM_POINTS)) for stream in range(SIM_STREAMS)
        }
        keys = list(runs)
        start, outputs = now(), []
        for k in _rng(self.seed, index, 4).permutation(len(keys)):
            key = keys[k]
            i, _, stream = runs[key]
            self._begin(index, key)
            outputs.append((
                key, *timed(lambda: self.simulate(i, index, stream)),
                lambda result: result.fg_completions,
            ))
        return checked_pass(start, outputs, lambda key, result: self._check(runs[key], result))

    def _check(self, run: tuple[int, int, int], result) -> str | None:
        """Plausible metrics; kept for the pooled check."""
        values = [float(getattr(result, m)) for m in SIM_METRICS]
        if not (all(math.isfinite(v) and v >= 0 for v in values)
                and all(v <= 1 for v in values[2:])):
            return f"implausible metrics {values}"
        self.results[run] = values
        return None

    def final_errors(self) -> list[str]:
        """The pooled check, and one replay per point: a stream gives the same metrics."""
        errors = []
        for i, (workload, load) in enumerate(SIM_POINTS):
            key = sim_key(workload, load)
            runs = sorted(run for run in self.results if run[0] == i)
            if len(runs) < SIM_STREAMS:
                errors.append(f"{key}: only {len(runs)} replications")
                continue
            replay = self.simulate(*runs[0])
            again = [float(getattr(replay, m)) for m in SIM_METRICS]
            if again != self.results[runs[0]]:
                errors.append(f"{key}: replayed stream gave {again}, "
                              f"first run {self.results[runs[0]]}")
            rows = [self.results[run] for run in runs]
            data = np.asarray(rows)
            for j, metric in enumerate(SIM_METRICS):
                ref = self.reference[key][metric]
                mean = float(data[:, j].mean())
                expected = ref["analytic"] + ref["bias"]
                limit = SIM_Z * ref["sd"] / math.sqrt(len(rows))
                if not abs(mean - expected) <= limit:
                    errors.append(
                        f"{key} {metric}: simulated mean {mean:.5g} over "
                        f"{len(rows)} streams, analytic {ref['analytic']:.5g} + "
                        f"bias {ref['bias']:.3g} (limit {limit:.3g})"
                    )
        return errors


WORKLOADS = {w.name: w for w in (PaperCli, PolicySweep, JobQueue, SimValidation)}
