"""Write every sweep, solve, basis and fit output of a checkout, for byte-for-byte comparison.

    python scripts/sweep_outputs.py OUTDIR [CHECKOUT]
    python scripts/sweep_outputs.py compare OUTDIR_A OUTDIR_B

CHECKOUT (default: the repository holding this script) is the tree whose
`src/` is imported and whose configs are run.  For each `configs/*.cfg` and
`perfbench/configs/*.cfg` the script runs `mfs2d sweep` with `timing = off`
forced in `[run]`, and writes the table and the command's stderr to
`OUTDIR/<dir>/<name>.csv` and `OUTDIR/<dir>/<name>.stderr`, `<dir>` being
`configs` or `perfbench/configs`.  On the same config it runs `mfs2d solve`
and writes its stdout and stderr to `OUTDIR/<dir>/<name>.solve.csv` and
`OUTDIR/<dir>/<name>.solve.stderr`.  It then writes each `mfs2d basis` dump
listed in BASIS_DUMPS to `OUTDIR/basis/<config>_<method>_n<N>_s<samples>.csv`,
one file per dump, and the stdout of `mfs2d fit` on each sweep table listed
in FITS to `OUTDIR/fit/<name>_<method>.csv`.  Run it once per checkout (e.g.
a `git clone` of the parent commit) and compare with
`diff -r OUTDIR_A OUTDIR_B`, or with the `compare` mode.

`compare` reports the files that are byte-identical by count and, for each
CSV that differs, one line per (file, method, column) that differs: the
largest absolute difference, the largest difference relative to the A value,
and the largest absolute difference over the column's largest |A| value.
Rows are paired in order; tables without a `method` column (basis dumps,
fits) report `-` as the method.  Files present on one side only, or that
differ in shape or in a non-numeric field, are reported as such.  The exit
status is 1 when anything differs.

When writing, BLAS runs on one thread, and the exit status is 1 when any
command exited non-zero (its stderr is still written).
"""

import configparser
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG_DIRS = ("configs", "perfbench/configs")
BASIS_DUMPS = (    # (config, method, N, samples)
    ("configs/star_circle2.cfg", "direct", 50, 200),
    ("configs/star_circle2.cfg", "qr", 50, 200),
    ("configs/star_circle2.cfg", "svd", 50, 200),
    ("configs/star_circle2.cfg", "svd", 200, 300),
    ("configs/star_circle2.cfg", "qr", 200, 600),
    ("configs/far_sources_basis.cfg", "direct", 8, 512),
    ("configs/far_sources_basis.cfg", "svd", 8, 512),
)
FITS = (("configs/disk_growth_law", "direct"),)    # (sweep table, method)


def _run(checkout: Path, args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.run(
        [sys.executable, "-m", "mfs2d.cli", *args], env=env, capture_output=True, text=True
    )


def _timing_off(config: Path, dest: Path) -> Path:
    cp = configparser.ConfigParser()
    cp.read(config)
    cp["run"]["timing"] = "off"
    with open(dest, "w") as fh:
        cp.write(fh)
    return dest


def _read_csv(path: Path):
    """Header and rows of a CSV file, or None when it is not a table of numbers and names."""
    lines = path.read_text().splitlines()
    if not lines or "," not in lines[0]:
        return None
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return (header, rows) if all(len(r) == len(header) for r in rows) else None


def _compare_tables(name: str, a, b) -> list:
    """Report lines for two tables with the same header, paired row by row."""
    (header, rows_a), (header_b, rows_b) = a, b
    if header != header_b or len(rows_a) != len(rows_b):
        return [f"{name}: header or row count differs"]
    method = header.index("method") if "method" in header else None
    stats = {}    # (method, column) -> [max abs, max rel, column max |A|]
    for ra, rb in zip(rows_a, rows_b):
        key = ra[method] if method is not None else "-"
        for col, va, vb in zip(header, ra, rb):
            try:
                fa, fb = float(va), float(vb)
            except ValueError:
                if va != vb:
                    return [f"{name}: non-numeric field {col} differs: {va!r} vs {vb!r}"]
                continue
            entry = stats.setdefault((key, col), [0.0, 0.0, 0.0])
            entry[2] = max(entry[2], abs(fa))
            diff = 0.0 if va == vb else abs(fa - fb)
            if diff:
                rel = diff / abs(fa) if fa else math.inf
                if math.isnan(diff):    # nan on one side only
                    diff = rel = math.inf
                entry[0] = max(entry[0], diff)
                entry[1] = max(entry[1], rel)
    return [
        f"{name}\t{key}\t{col}\tmax_abs={d:.3g}\tmax_rel={r:.3g}\tmax_abs/col_max={d / m if m else math.inf:.3g}"
        for (key, col), (d, r, m) in stats.items()
        if d > 0.0
    ]


def compare(dir_a: Path, dir_b: Path) -> int:
    names = {p.relative_to(d).as_posix() for d in (dir_a, dir_b) for p in d.rglob("*") if p.is_file()}
    same, report = 0, []
    for name in sorted(names):
        pa, pb = dir_a / name, dir_b / name
        if not (pa.is_file() and pb.is_file()):
            report.append(f"{name}: only in {dir_a if pa.is_file() else dir_b}")
        elif pa.read_bytes() == pb.read_bytes():
            same += 1
        else:
            a, b = _read_csv(pa), _read_csv(pb)
            if a is None or b is None:
                report.append(f"{name}: differs (not a table)")
            else:
                report.extend(_compare_tables(name, a, b) or [f"{name}: differs in formatting only"])
    print(f"{same} of {len(names)} files byte-identical")
    for line in report:
        print(line)
    return 1 if report else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    out = Path(argv[0]).resolve()
    checkout = Path(argv[1] if len(argv) == 2 else Path(__file__).parent.parent).resolve()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for config_dir in CONFIG_DIRS:
            dest = out / config_dir
            dest.mkdir(parents=True, exist_ok=True)
            for config in sorted((checkout / config_dir).glob("*.cfg")):
                cfg = _timing_off(config, Path(tmp) / config.name)
                csv = dest / f"{config.stem}.csv"
                done = _run(checkout, ["sweep", "--config", str(cfg), "--out", str(csv)])
                (dest / f"{config.stem}.stderr").write_text(done.stderr)
                if done.returncode:
                    failed.append(f"{config_dir}/{config.name}")
                done = _run(checkout, ["solve", "--config", str(cfg)])
                (dest / f"{config.stem}.solve.csv").write_text(done.stdout)
                (dest / f"{config.stem}.solve.stderr").write_text(done.stderr)
                if done.returncode:
                    failed.append(f"solve {config_dir}/{config.name}")
    basis = out / "basis"
    basis.mkdir(parents=True, exist_ok=True)
    for config, method, n, samples in BASIS_DUMPS:
        stem = f"{Path(config).stem}_{method}_n{n}_s{samples}"
        args = ["basis", "--config", str(checkout / config), "--method", method]
        args += ["--n", str(n), "--samples", str(samples), "--out", str(basis / f"{stem}.csv")]
        done = _run(checkout, args)
        if done.returncode:
            (basis / f"{stem}.stderr").write_text(done.stderr)
            failed.append(stem)
    fits = out / "fit"
    fits.mkdir(parents=True, exist_ok=True)
    for table, method in FITS:
        stem = f"{Path(table).name}_{method}"
        done = _run(checkout, ["fit", "--in", str(out / f"{table}.csv"), "--method", method])
        (fits / f"{stem}.csv").write_text(done.stdout)
        if done.returncode:
            (fits / f"{stem}.stderr").write_text(done.stderr)
            failed.append(f"fit {stem}")
    for name in failed:
        sys.stderr.write(f"failed: {name}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
