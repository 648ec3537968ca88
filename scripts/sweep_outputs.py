"""Write every sweep, solve, basis and fit output of a checkout, for byte-for-byte comparison.

    python scripts/sweep_outputs.py OUTDIR [CHECKOUT]

CHECKOUT (default: the repository holding this script) is the tree whose
`src/` is imported and whose configs are run.  For each `configs/*.cfg` and
`perfbench/configs/*.cfg` the script runs `mfs2d sweep` with `timing = off`
forced in `[run]`, and writes the table and the command's stderr to
`OUTDIR/<dir>/<name>.csv` and `OUTDIR/<dir>/<name>.stderr`, `<dir>` being
`configs` or `perfbench/configs`.  On the same config it runs `mfs2d solve`
and writes its stdout and stderr to `OUTDIR/<dir>/<name>.solve.csv` and
`OUTDIR/<dir>/<name>.solve.stderr`.  It then writes each `mfs2d basis` dump
listed in BASIS_DUMPS to `OUTDIR/basis/<config>_<method>_n<N>_s<samples>.csv`
(svd: a `_real.csv` and `_imag.csv` pair), and
the stdout of `mfs2d fit` on each sweep table listed in FITS to
`OUTDIR/fit/<name>_<method>.csv`.  Run it once per checkout (e.g. a
`git clone` of the parent commit) and compare with
`diff -r OUTDIR_A OUTDIR_B`.

BLAS runs on one thread.  The exit status is 1 when any command exited
non-zero (its stderr is still written).
"""

import configparser
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
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
