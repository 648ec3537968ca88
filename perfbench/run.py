"""mfs2d benchmark entry point.

    python3 perfbench/run.py --workload star_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and measures the mfs2d sources under src/.
With --trace 0 it times `setup_s` as the median wall time of fresh
interpreters that import mfs2d, parse the workload config and build its
workspace, then runs the workload in one more fresh interpreter (worker.py)
for the end-to-end metrics.  With --trace 1 the worker wraps the program's
layer functions in spans and reports the per-layer metrics instead.  Every
child pins BLAS to one thread before numpy is imported.

Every metric named in BENCHMARK.json is printed with its unit on the last
stdout line; the line before it records the environment.  A cell that
raises or is worse than the committed reference CSV counts as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import HERE, ROOT, SRC, WORKLOADS

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 9
MMAP_THRESHOLD = "131072"
TIME_LIMIT_S = 170.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    # A fixed glibc mmap threshold returns every large array to the system when
    # it is freed; with the default sliding threshold the peak RSS depends on
    # the cell order, which the seed shuffles.  The worker pins BLAS threads
    # itself, before it imports numpy.
    return dict(os.environ, MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD)


def _worker(args, timeout):
    return subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )


def time_setup(workload, deadline):
    """Median wall time of fresh setup-only interpreters (one unmeasured warm-up first)."""
    walls = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        _worker(["--workload", workload, "--mode", "setup"], deadline - time.monotonic())
        if i:
            walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def result_line(spec, worker_result, setup_s, trace):
    """The final JSON line: every metric of the selected BENCHMARK.json group, with its unit."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    values = dict(worker_result["layer_metrics"] if trace else worker_result["metrics"])
    if not trace:
        values["setup_s"] = setup_s
    correct = worker_result["failed"] == 0 and (not trace or worker_result["span_check"]["ok"])
    return {
        "correct": correct,
        "attempted": worker_result["attempted"],
        "failed": worker_result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="mfs2d benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "mfs2d", "__init__.py")):
        sys.stderr.write(f"perfbench: no mfs2d sources under {SRC}\n")
        return 2
    spec = load_spec()
    try:
        setup_s = None if args.trace else time_setup(args.workload, deadline)
        proc = _worker(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--mode", "trace" if args.trace else "run",
            ],
            deadline - time.monotonic(),
        )
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"perfbench: worker exited with {exc.returncode}\n")
        return 1
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: worker exceeded {TIME_LIMIT_S} s\n")
        return 1
    worker_result = json.loads(proc.stdout.strip().splitlines()[-1])
    if worker_result["failures"]:
        sys.stderr.write("\n".join(worker_result["failures"][:20]) + "\n")
    print(json.dumps({"environment": worker_result["environment"]}))
    print(json.dumps(result_line(spec, worker_result, setup_s, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
