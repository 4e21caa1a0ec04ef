"""Capture the goldens the benchmark's correctness gates compare against.

Run from the repository root at a commit whose output is trusted:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/capture_goldens.py [figures|sim|policy_sweep|fig1 ...]

With no names it captures everything.
It writes ``perfbench/goldens/``:

* ``figures/figN.txt`` -- rendered text of fig2 and fig5-fig13, and
  ``figures/fig1_head.txt``, fig1's closed-form table (everything before
  its sampled ACF);
* ``fig1_stats.json`` -- for each fig1 workload the closed-form mean, SCV
  and lag 1..100 ACF of the fitted MMPP, and the bias and standard
  deviation (pooled over lags for the ACF) of the sample estimates across
  calibration seeds (none of
  which is the CLI's own fig1 seed);
* ``policy_sweep.json`` -- the requested metric of every curve of one
  unshifted policy_sweep pass (NaN as null), and per load the largest
  change of that value under a load shift of the largest offset;
* ``sim_reference.json`` -- at each sim_validation point, each metric's
  analytic value, and the bias and per-stream standard deviation of the
  simulated value across calibration streams (keyed apart from any
  benchmark seed's streams).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loads  # noqa: E402

#: Seeds of the fig1 calibration traces.
CALIBRATION_SEEDS = tuple(range(101, 109))
FIG1_LAGS = 100
#: Simulator runs per sim_validation point for its calibration.
SIM_CALIBRATION_STREAMS = 40


def _nan_to_none(values) -> list:
    return [None if math.isnan(v) else float(v) for v in values]


def capture_figures(out: Path) -> None:
    from repro.experiments.runner import execute_figure

    folder = out / "figures"
    folder.mkdir(parents=True, exist_ok=True)
    for name in loads.EXACT_FIGURES:
        (folder / f"{name}.txt").write_text(execute_figure(name))
    head = execute_figure("fig1").partition("\n[ACF]\n")[0]
    (folder / "fig1_head.txt").write_text(head)


def capture_fig1_stats(out: Path) -> None:
    from repro.experiments.figures import fig1_trace_acf
    from repro.workloads.paper import WORKLOADS
    from repro.workloads.traces import generate_trace

    samples = fig1_trace_acf.__defaults__[0]
    rows = []
    for spec in WORKLOADS.values():
        mmpp = spec.fit()
        closed = np.asarray(mmpp.acf(FIG1_LAGS))
        means, scvs, acfs = [], [], []
        for seed in CALIBRATION_SEEDS:
            trace = generate_trace(mmpp, samples, np.random.default_rng(seed))
            means.append(trace.mean())
            scvs.append(trace.var() / trace.mean() ** 2)
            acfs.append(loads.sample_acf(trace, FIG1_LAGS))
        acfs = np.asarray(acfs)
        rows.append(
            {
                "name": spec.name,
                "mean": float(mmpp.mean_interarrival),
                "mean_bias": float(np.mean(means) - mmpp.mean_interarrival),
                "mean_sd": float(np.std(means, ddof=1)),
                "scv": float(mmpp.scv),
                "scv_bias": float(np.mean(scvs) - mmpp.scv),
                "scv_sd": float(np.std(scvs, ddof=1)),
                "acf": closed.tolist(),
                "acf_bias": (acfs.mean(axis=0) - closed).tolist(),
                # Pooled over lags: per-lag estimates from a few seeds
                # scatter too much to bound each lag on its own.
                "acf_sd": float(np.sqrt(np.mean(acfs.var(axis=0, ddof=1)))),
            }
        )
        print(f"fig1 calibration: {spec.name} done", flush=True)
    payload = {
        "samples": samples,
        "calibration_seeds": list(CALIBRATION_SEEDS),
        "workloads": rows,
    }
    (out / "fig1_stats.json").write_text(json.dumps(payload, indent=1) + "\n")


def capture_policy_sweep(out: Path) -> None:
    workload = loads.PolicySweep(seed=0, scratch=out)
    workload.build()
    delta = loads.LOAD_OFFSET[1]
    golden = {}
    for i, curve in enumerate(workload.curves):
        values = np.asarray(workload.solve(i, 0.0), dtype=float)
        shifted = np.array([workload.solve(i, d) for d in (-delta, delta)], dtype=float)
        if not (np.isnan(shifted) == np.isnan(values)).all():
            raise SystemExit(f"{curve.key}: a load shift of {delta} moves a NaN")
        golden[curve.key] = {
            "values": _nan_to_none(values),
            "change": _nan_to_none(np.abs(shifted - values).max(axis=0)),
        }
    (out / "policy_sweep.json").write_text(json.dumps(golden, indent=1) + "\n")


def capture_sim_reference(out: Path) -> None:
    workload = loads.SimValidation(seed=0, scratch=out)
    workload.build()
    reference = {}
    for i, point in enumerate(loads.SIM_POINTS):
        solution = workload.models[i].solve()
        # Key 6 keeps these streams apart from every benchmark stream
        # (loads.sim_stream uses key 5).
        runs = [
            workload.simulators[i].run(
                workload.horizons[i], loads._rng(CALIBRATION_SEEDS[0], 6, i, s)
            )
            for s in range(SIM_CALIBRATION_STREAMS)
        ]
        reference[loads.sim_key(*point)] = {
            m: {
                "analytic": float(getattr(solution, m)),
                "bias": float(np.mean([getattr(r, m) for r in runs]) - getattr(solution, m)),
                "sd": float(np.std([getattr(r, m) for r in runs], ddof=1)),
            }
            for m in loads.SIM_METRICS
        }
        print(f"sim calibration: {loads.sim_key(*point)} done", flush=True)
    (out / "sim_reference.json").write_text(json.dumps(reference, indent=1) + "\n")


CAPTURES = {
    "figures": capture_figures,
    "sim": capture_sim_reference,
    "policy_sweep": capture_policy_sweep,
    "fig1": capture_fig1_stats,
}


def main() -> None:
    names = sys.argv[1:] or list(CAPTURES)
    out = loads.GOLDENS
    out.mkdir(exist_ok=True)
    for name in names:
        CAPTURES[name](out)
    print(f"goldens written to {out}: {', '.join(names)}")


if __name__ == "__main__":
    main()
