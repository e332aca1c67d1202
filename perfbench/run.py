#!/usr/bin/env python3
"""tvssl benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload moons_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced passes over the same inputs and
reports the per-layer metrics from the spans of the traced ones, together
with the tracing overhead (traced minus untraced pass time). The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine, library versions, BLAS, thread count and seed. A per-layer table
goes to standard error.

The library is imported from ``src/`` of the checkout this file sits in;
the run stops with an error if that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: every workload is single-process (``--jobs 1``), and one
# thread keeps timings steady on a small shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS have
# passed (at most SETUP_MAX times), so that a set-up of a few milliseconds
# still yields a steady median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 201, 2.0
# In untraced passes every fit is followed by repeats of the pass's lap_rls
# fit for this share of the fit's time (see FitRecorder), so that
# ``fit_s.lap_rls`` is a median over many calls spread across the run, even
# where one fit takes a millisecond and the machine's speed changes from one
# second to the next.
REPEAT_SHARE = 0.05


def _import_library():
    if not (SRC / "tvssl" / "__init__.py").is_file():
        sys.exit(f"error: tvssl sources not found under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import tvssl

    if Path(tvssl.__file__).resolve().parent != (SRC / "tvssl").resolve():
        sys.exit(f"error: imported tvssl from {tvssl.__file__}, not from {SRC}")


def _declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


# Per-layer metric families; BENCHMARK.json lists every metric by name.
CALL_LAYERS = (
    "opt_core.tv_prox",
    "opt_core.qp_box_eq",
    "opt_core.project_box_eq",
    "opt_core.project_simplex_rows",
    "opt_core.SpdFactor.factor",
    "opt_core.SpdFactor.solve",
    "opt_core.LuFactor.factor",
    "opt_core.LuFactor.solve",
    "kernel.kernel_expand",
)
SELF_LAYERS = (
    "graph.build_knn_graph",
    "kernel.rbf_gram",
    "kernel.median_bandwidth",
    "data_io.make_split",
    "bench_cli.run_experiment",
    "binary.SvmProxSolver.init",
    "binary.SvmProxSolver.solve",
)


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


def _timed_passes(workload, rng, recorder, seconds, tracer):
    """Run passes until the next one would overrun ``seconds``.

    Without a tracer each unit is one pass. With one, each unit is an
    untraced pass followed by a traced pass on the same inputs. Returns
    ``[(untraced_s, fits, traced_s or None, lap_rls repeat times)]``, where
    ``untraced_s`` leaves out the time of the repeats.
    """
    clock = time.perf_counter
    units, unit_times = [], []
    start = clock()
    while True:
        pass_seed = int(rng.integers(2**31))
        n_repeats, repeat_s = len(recorder.repeats), recorder.repeat_s
        recorder.repeat_share = REPEAT_SHARE
        t0 = clock()
        try:
            fits = workload.run_pass(pass_seed, recorder)
        finally:
            recorder.repeat_share = 0.0
        t1 = clock()
        untraced_s = t1 - t0 - (recorder.repeat_s - repeat_s)
        traced_s = None
        if tracer is not None:
            tracer.phase = "pass"
            tracer.install()
            try:
                workload.run_pass(pass_seed, recorder)
            finally:
                tracer.uninstall()
            traced_s = clock() - t1
        units.append((untraced_s, fits, traced_s, recorder.repeats[n_repeats:]))
        unit_times.append(clock() - t0)
        if clock() - start + statistics.median(unit_times) > seconds:
            return units


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _end_to_end(setup_times, units, workload, peak_rss_mb) -> dict:
    """Median setup time; the median over passes of a pass's successful fits
    per second (a pass includes data, graph, splits, scoring and
    prediction), so that one pass on a hard split does not set the run's
    figure; median lap_rls fit time (the cell every workload has) over its
    fits and their repeats; and peak memory."""
    rates = [sum(not workload.failed(f) for f in u[1]) / u[0] for u in units]
    lap_rls = [f.seconds for u in units for f in u[1] if f.cell == "lap_rls" and not f.failed]
    lap_rls += [s for u in units for s in u[3]]
    return {
        "setup_s": statistics.median(setup_times),
        "fits_per_s": statistics.median(rates),
        "fit_s.lap_rls": statistics.median(lap_rls) if lap_rls else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def _fit_summary(units, workload) -> dict:
    """Median wall time of each trainer cell, mean error, failure share and
    share of fits above their cell's ceiling over the untraced fits."""
    from workloads import CELLS

    fits = [f for u in units for f in u[1]]
    out = {}
    for cell in CELLS:
        times = [f.seconds for f in fits if f.cell == cell and not f.failed]
        out[f"cell.{cell}.fit_s"] = statistics.median(times) if times else 0.0
    errors = [f.error_pct for f in fits if f.error_pct is not None]
    out["error_pct"] = statistics.fmean(errors) if errors else 0.0
    out["fail_frac"] = sum(workload.failed(f) for f in fits) / len(fits)
    out["above_ceiling_frac"] = sum(workload.above_ceiling(f) for f in fits) / len(fits)
    return out


def _per_layer(tracer, units, workload) -> dict:
    """Layer values for one setup plus one average traced pass."""
    from workloads import CELLS

    setup = tracer.layer_table("setup")
    runs = tracer.layer_table("pass")
    n = len(units)

    def per_pass(name, key):
        s = setup.get(name, {}).get(key, 0)
        r = runs.get(name, {}).get(key, 0)
        return s + r / n

    def extras(name, key):
        both = (setup.get(name), runs.get(name))
        return [e[key] for r in both if r is not None for e in r["extras"]]

    def extra_sum(name, key):
        s = sum(e[key] for e in setup.get(name, {}).get("extras", []))
        r = sum(e[key] for e in runs.get(name, {}).get("extras", []))
        return s + r / n

    out = {}
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = per_pass(name, "calls")
        out[f"{name}.s"] = per_pass(name, "self_s")
    trainers = [f"binary.{c}_train" for c in CELLS] + [f"multiclass.{c}_mc_train" for c in CELLS]
    for name in SELF_LAYERS + tuple(trainers):
        out[f"{name}.s"] = per_pass(name, "self_s")
    for name in ("opt_core.tv_prox", "opt_core.qp_box_eq"):
        caps = extras(name, "cap_hit")
        out[f"{name}.iters"] = extra_sum(name, "iters")
        out[f"{name}.cap_hits"] = extra_sum(name, "cap_hit")
        out[f"{name}.converged_frac"] = (1.0 - sum(caps) / len(caps)) if caps else 0.0
    gaps = extras("opt_core.tv_prox", "gap")
    out["opt_core.tv_prox.gap_p50"] = statistics.median(gaps) if gaps else 0.0
    out["opt_core.tv_prox.vectors"] = extra_sum("opt_core.tv_prox", "vectors")
    for cls in ("SpdFactor", "LuFactor"):
        out[f"opt_core.{cls}.solve.cols"] = extra_sum(f"opt_core.{cls}.solve", "cols")

    out.update(_fit_summary(units, workload))
    out["trace.overhead_s"] = statistics.median(u[2] - u[0] for u in units)
    out["trace.spans"] = sum(r["calls"] for r in runs.values()) / n
    return out


def _missing_layers(tracer, workload) -> list:
    table = tracer.layer_table()
    return [name for name in workload.layers if table.get(name, {}).get("calls", 0) == 0]


def _report(tracer, units, workload, metrics) -> None:
    """Human-readable per-layer table on standard error."""
    runs = tracer.layer_table("pass") if tracer else {}
    total = sum(u[2] if u[2] is not None else u[0] for u in units)
    print(f"# {workload.name}: {len(units)} pass(es), {total:.2f} s timed", file=sys.stderr)
    print("#   untraced pass s: " + " ".join(f"{u[0]:.3f}" for u in units), file=sys.stderr)
    for f in (f for u in units for f in u[1] if workload.failed(f)):
        print(f"#   FAILED fit {f.cell}: {f.seconds:.3f} s", file=sys.stderr)
    for f in (f for u in units for f in u[1] if workload.above_ceiling(f)):
        print(f"#   fit above ceiling {f.cell}: error {f.error_pct:.1f}%", file=sys.stderr)
    for name, row in sorted(runs.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["self_s"] < 1e-3 * total:
            continue
        print(f"#   {name:40s} calls {row['calls']:8d}  self {row['self_s']:8.3f} s"
              f"  ({100 * row['self_s'] / total:5.1f}%)", file=sys.stderr)
    for key, value in {**_fit_summary(units, workload), **metrics}.items():
        print(f"#   {key} = {value:.6g}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import numpy as np

    from tracer import Patches, Tracer
    from workloads import WORKLOADS, FitRecorder

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = _declared_metrics()[args.trace]
    print(json.dumps({"meta": {"workload": workload.name, **_environment(args.seed)}}))

    clock = time.perf_counter
    patches = Patches()
    recorder = FitRecorder(patches)
    tracer = None
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX
        ):
            t0 = clock()
            workload.setup(args.seed)
            setup_times.append(clock() - t0)
        if args.trace:
            tracer = Tracer()
            tracer.phase = "setup"
            tracer.install()
            try:
                workload.setup(args.seed)
            finally:
                tracer.uninstall()
        rng = np.random.default_rng(args.seed)
        units = _timed_passes(workload, rng, recorder, args.seconds, tracer)
    finally:
        patches.undo()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fits = [f for u in units for f in u[1]]
    failed = sum(workload.failed(f) for f in fits)
    above = workload.cells_above_ceiling(fits)
    for cell, error in above.items():
        print(f"# median error of {cell} is {error:.1f}%, above its ceiling", file=sys.stderr)
    if args.trace:
        missing = _missing_layers(tracer, workload)
        if missing:
            sys.exit(f"error: layers recorded no calls on {workload.name}: {missing}")
        metrics = _per_layer(tracer, units, workload)
    else:
        metrics = _end_to_end(setup_times, units, workload, peak_rss_mb)
    if set(metrics) != set(declared):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    _report(tracer, units, workload, metrics)
    print(json.dumps({
        "correct": failed == 0 and not above,
        "attempted": len(fits),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
