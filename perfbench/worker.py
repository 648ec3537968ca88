"""One benchmark process: import mfs2d from this checkout, set up a workload, run its cells.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --mode setup|run|trace

`setup` stops after the config parse and workspace (the part `setup_s`
times from outside).  `run` repeats the whole sweep, each repetition in a
seed-shuffled cell order, at least twice and while another repetition fits
in T seconds, re-timing the time-to-accuracy cell after each one; it times
every `bench.run_single` call from outside.  `trace` alternates
untraced and traced repetitions; the traced ones wrap the program functions
listed in layers.py.  Every cell is checked against the reference CSV.  The
last stdout line is one JSON object.
"""

import argparse
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

import layers
import verify
from spans import Tracer, root_seconds, summarize
from workloads import ROOT, SRC, THREAD_VARS, WORKLOADS

OUT = os.path.join(ROOT, ".perfbench_out")
PROGRAM_MODULES = ("bench", "solvers", "linalg", "expansion")
TTA_SHARE = 0.2    # time re-timing the time-to-accuracy cell, per second of sweep


class SetupError(Exception):
    """The checkout holds no mfs2d sources to measure."""


def import_program():
    """Import the mfs2d modules from this checkout's src/ (never an installed copy)."""
    init = os.path.join(SRC, "mfs2d", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no mfs2d sources at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("mfs2d")
    if os.path.abspath(package.__file__) != init:
        raise SetupError(f"imported mfs2d from {package.__file__}, expected {init}")
    modules = {}
    for name in PROGRAM_MODULES:
        try:
            modules[name] = importlib.import_module(f"mfs2d.{name}")
        except ImportError:
            modules[name] = None    # reported as absent spans by the traced run
    if modules["bench"] is None:
        raise SetupError("mfs2d.bench is missing")
    return modules


def environment():
    """CPU count, pinned BLAS threads, BLAS build and interpreter versions."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def setup(bench, workload):
    """Parse the workload config and build the per-config workspace a sweep shares."""
    cfg = bench.parse_config(workload.config)
    make_workspace = getattr(bench, "_workspace", None)
    return cfg, (make_workspace(cfg) if make_workspace else None)


def _row(row):
    return {
        "M": row.m,
        "p": row.p,
        "cond2": row.cond2,
        "linf_error": row.linf_error,
        "max_imag": row.max_imag,
    }


def run_rep(bench, cfg, ws, order, tracer=None):
    """Run the cells in `order`; returns wall seconds, per-cell seconds, rows and errors."""
    seconds, rows, errors = {}, {}, {}
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for method, n in order:
            t0 = time.perf_counter()
            cell_span = (
                tracer.span(layers.CELL_SPAN.format(method=method))
                if tracer
                else contextlib.nullcontext()
            )
            try:
                with cell_span:
                    row, _ = bench.run_single(cfg, method, n, ws)
            except Exception as exc:    # a raising cell is a failed cell, never skipped
                errors[(method, n)] = f"{type(exc).__name__}: {exc}"
            else:
                rows[(method, n)] = row
            seconds[(method, n)] = time.perf_counter() - t0
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "seconds": seconds,
        "rows": {cell: _row(row) for cell, row in rows.items()},
        "errors": errors,
        "table": rows,
    }


def measure(modules, workload, seed, seconds, trace=False, cells=None, reference=None):
    """Set up and run a workload; returns the result record (see run.py for the metrics).

    `cells` restricts the run to a subset of the config's (method, N) cells
    and `reference` replaces the committed reference CSV; both exist for tests.
    """
    bench = modules["bench"]
    tracer = None
    if trace:
        tracer = Tracer()
        layers.register(tracer, modules)
    t0 = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        cfg, ws = setup(bench, workload)
    setup_s = time.perf_counter() - t0
    setup_spans = tracer.take() if tracer else []

    ref = verify.load_reference(reference or workload.reference)
    config_cells = [(m, n) for m in cfg.methods for n in cfg.n_values]
    failures = [
        f"{m} N={n}: reference row not produced by the config"
        for m, n in verify.missing_rows(ref, config_cells)
    ]
    attempted = len(failures)

    def run_checked(order, traced=False):
        nonlocal attempted
        rep = run_rep(bench, cfg, ws, order, tracer if traced else None)
        rep["traced"] = traced
        for cell in order:
            reason = rep["errors"].get(cell) or verify.check_row(ref.get(cell), rep["rows"][cell])
            if reason:
                failures.append(f"{cell[0]} N={cell[1]}: {reason}")
        attempted += len(order)
        return rep

    # Whole sweeps in seed-shuffled order, at least two, while another fits.
    # After each untraced sweep the time-to-accuracy cell, a single cell, is
    # re-timed for TTA_SHARE of the sweep's time, so that its samples spread
    # over the whole run instead of one stretch of it.
    run_cells = [c for c in config_cells if cells is None or c in cells]
    rng = random.Random(seed)
    reps, orders, traced_spans, blocks = [], [], [], []
    tta, tta_samples = None, []
    start = time.perf_counter()
    while True:
        block_start = time.perf_counter()
        order = list(run_cells)
        rng.shuffle(order)
        traced = tracer is not None and len(reps) % 2 == 1
        rep = run_checked(order, traced)
        reps.append(rep)
        orders.append(order)
        if traced:
            traced_spans.append(tracer.take())
        tta = tta or verify.tta_cell(rep["rows"], workload.target_method, workload.target_error)
        if tta in rep["rows"] and not tracer:
            tta_samples.append(rep["seconds"][tta])
            t0 = time.perf_counter()
            while True:
                tta_samples.append(run_checked([tta])["seconds"][tta])
                if time.perf_counter() - t0 + tta_samples[-1] > TTA_SHARE * rep["wall_s"]:
                    break
        blocks.append(time.perf_counter() - block_start)
        if len(reps) >= 2 and time.perf_counter() - start + max(blocks) > seconds:
            break

    plain = [r for r in reps if not r["traced"]]
    cell_medians = {c: statistics.median(r["seconds"][c] for r in plain) for c in run_cells}
    wall_s = sum(cell_medians.values())

    result = {
        "workload": workload.name,
        "seed": seed,
        "setup_inprocess_s": setup_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "orders": orders,
        "rep_walls": [[r["traced"], r["wall_s"]] for r in reps],
        "cell_medians": [[m, n, s] for (m, n), s in cell_medians.items()],
        "tta_cell": tta,
        "tta_samples": tta_samples,
        "csv": bench.table_to_csv(
            bench.SweepTable(rows=[reps[0]["table"][c] for c in sorted(reps[0]["table"])])
        ),
        "metrics": {
            "wall_s": wall_s,
            # a sweep that never reaches the target takes at least its whole wall time
            "tta_s": statistics.median(tta_samples) if tta_samples else wall_s,
            "pass_frac": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if tracer:
        result.update(_trace_metrics(tracer, reps, setup_spans, traced_spans))
    return result


def _trace_metrics(tracer, reps, setup_spans, traced_spans):
    untraced = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    walls = [r["wall_s"] for r in reps if r["traced"]]
    overhead = statistics.median(walls) - untraced
    base = layers.per_layer(summarize(setup_spans))
    per_rep = []
    for spans in traced_spans:
        values = layers.per_layer(summarize(spans))
        per_rep.append({k: base[k] + v for k, v in values.items()})
    metrics = {key: statistics.median(r[key] for r in per_rep) for key in per_rep[0]}
    metrics["trace.overhead_s"] = overhead
    metrics["trace.absent_names"] = len(tracer.absent)
    # every traced second is inside some span, up to the measured overhead
    gaps = [wall - root_seconds(spans) for wall, spans in zip(walls, traced_spans)]
    tolerance = max(abs(overhead), 0.005 * untraced)
    ok = all(-1e-9 <= g <= tolerance for g in gaps)
    return {
        "layer_metrics": metrics,
        "absent": tracer.absent,
        "span_check": {"gaps_s": gaps, "tolerance_s": tolerance, "ok": ok},
        "spans": [s.as_dict() for s in setup_spans + traced_spans[0]],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:    # before numpy is first imported
        os.environ[var] = "1"
    try:
        modules = import_program()
    except SetupError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        setup(modules["bench"], workload)
        return 0
    result = measure(modules, workload, args.seed, args.seconds, trace=args.mode == "trace")
    result["environment"] = environment()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-{args.mode}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    result.pop("spans", None)
    result.pop("csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
