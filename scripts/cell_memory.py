"""Peak RSS of one sweep cell, stage by stage, each cell in a fresh interpreter.

    python scripts/cell_memory.py CONFIG METHOD N [N ...]

For each N the script starts a fresh interpreter with BLAS on one thread
and glibc's MALLOC_MMAP_THRESHOLD_=131072, so that freed blocks go back to
the system and a high-water mark does not depend on what ran before.  The
interpreter imports `mfs2d` from this checkout's `src/`, parses CONFIG, and
runs the (METHOD, N) cell through `bench.run_single`, the path every sweep
row takes.  The stage functions are wrapped where their callers look them
up, and when each returns the script records the process's resident set
(`/proc/self/statm`) and its peak so far (`getrusage` `ru_maxrss`):

    before          after imports, config parsing and the workspace
    setup           the expansion (svd, qr: setup_expansion)
    factor z/w      each Arnoldi factorization (svd)
    coupling        the real reduced matrix, the expansion matrix times the
                    real coupling, formed as the SVD is entered (svd)
    reduced SVD     the SVD of the reduced matrix (svd)
    build           the basis returned (svd, qr)
    assembly        the system matrix
    solve           least squares and cond2
    boundary_error  the error on the config's error samples

One table is printed per N: stage, RSS and peak RSS in MiB (1 MiB =
1024 KiB, the unit perfbench's peak_rss_mb uses).  A stage that the
method does not reach is left out.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MMAP_THRESHOLD = "131072"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (module, attribute, label when it returns, label when it is entered)
STAGES = (
    ("bench", "setup_expansion", "setup", None),
    ("solvers", "arnoldi_vandermonde", "factor {}", None),
    ("linalg", "svd_thin", "reduced SVD", "coupling"),
    ("bench", "build_svd_basis", "build", None),
    ("bench", "build_qr_basis", "build", None),
    ("bench", "assemble_direct", "assembly", None),
    ("bench", "assemble_qr_system", "assembly", None),
    ("bench", "assemble_svd_system", "assembly", None),
    ("bench", "solve_direct", "solve", None),
    ("bench", "solve_qr", "solve", None),
    ("bench", "solve_svd", "solve", None),
    ("bench", "boundary_error", "boundary_error", None),
)


def _mib():
    """(resident, peak) of this process in MiB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    rss = pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    return rss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cell(config, method, n):
    """Run one cell in this interpreter and return [(stage, rss, peak)]."""
    from mfs2d import bench, linalg, solvers

    modules = {"bench": bench, "linalg": linalg, "solvers": solvers}
    records = []
    factors = iter("zw")

    def wrap(module, attr, after, before):
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            if before:
                records.append((before, *_mib()))
            result = inner(*args, **kwargs)
            label = after.format(next(factors, "?")) if "{}" in after else after
            records.append((label, *_mib()))
            return result

        setattr(module, attr, traced)

    cfg = bench.parse_config(config)
    ws = bench._workspace(cfg)
    for name, attr, after, before in STAGES:
        wrap(modules[name], attr, after, before)
    records.append(("before", *_mib()))
    bench.run_single(cfg, method, n, ws)
    return records


def main(argv):
    if len(argv) >= 2 and argv[0] == "--cell":
        config, method, n = argv[1:4]
        for stage, rss, peak in _cell(config, method, int(n)):
            print(f"{stage:<16}{rss:9.1f}{peak:9.1f}")
        return 0
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    config, method, sizes = argv[0], argv[1], argv[2:]
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    status = 0
    for n in sizes:
        print(f"# {config} {method} N={n}")
        print(f"{'stage':<16}{'rss_mib':>9}{'peak_mib':>9}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--cell", config, method, n], env=env)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
