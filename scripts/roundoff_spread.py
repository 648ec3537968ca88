"""Spread of every svd row of a config under eps-relative noise on the reduced matrix.

    python scripts/roundoff_spread.py CONFIG [CHECKOUT]

CHECKOUT (default: the repository holding this script) is the tree whose
`src/` is imported, as in `sweep_outputs.py`; CONFIG is a config file path.
The script runs every svd cell of CONFIG once as is, then once per draw
(seeds 0 to 9) with `mfs2d.linalg.svd_thin` wrapped so that the reduced
matrix B it factors becomes B + eps |B| g1 when B is real (the real-frame
coordinates) and B + eps |B| (g1 + i g2) / sqrt(2) when it is complex, g1
and g2 standard normal, elementwise: noise of one rounding error's size, of
B's own type, so a checkout of either kind can be measured.  BLAS runs
on one thread.  For each N it prints the plain cond2 and linf_error and the
minimum and maximum over the draws, each with every digit (Python's repr).
A change that moves a row by less than its spread cannot be told from a
change of the last bit of the reduced matrix.  Three draws were too few:
the plain row itself fell outside their band (osc_osc N=350 linf,
eta2_harmonic N=100 cond2), so ten are taken.  On a 2-core x86-64 VM a
run takes about 18 s on configs/osc_osc.cfg and 1.5 s on
configs/eta2_harmonic.cfg.
"""

import math
import os
import sys
from pathlib import Path

DRAWS = tuple(range(10))
EPS = 2.0**-52


def _rows(cfg):
    """{N: (cond2, linf_error)} of every svd cell of cfg; a failed cell gives NaNs."""
    from mfs2d.bench import run_single
    from mfs2d.errors import ConfigError, NumericalError

    out = {}
    for n in cfg.n_values:
        try:
            row, _ = run_single(cfg, "svd", n)
            out[n] = (row.cond2, row.linf_error)
        except (NumericalError, ConfigError) as exc:
            print(f"svd N={n}: {exc}", file=sys.stderr)
            out[n] = (math.nan, math.nan)
    return out


def _noisy(svd_thin, rng):
    """svd_thin of a + eps |a| g1 (real a) or a + eps |a| (g1 + i g2) / sqrt(2)."""

    def wrapped(a):
        if a.dtype.kind != "c":
            return svd_thin(a + EPS * abs(a) * rng.standard_normal(a.shape))
        noise = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
        return svd_thin(a + EPS * abs(a) * noise / math.sqrt(2.0))

    return wrapped


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parent.parent
    src = checkout.resolve() / "src"
    if not (src / "mfs2d").is_dir():    # else an installed mfs2d would be measured
        print(f"{src} holds no mfs2d package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"    # before numpy loads BLAS
    import numpy as np
    from mfs2d import linalg, parse_config

    cfg = parse_config(argv[0])
    if "svd" not in cfg.methods:
        print(f"{argv[0]} runs no svd cells", file=sys.stderr)
        return 2
    plain = _rows(cfg)
    svd_thin = linalg.svd_thin
    draws = []
    try:
        for seed in DRAWS:
            linalg.svd_thin = _noisy(svd_thin, np.random.default_rng(seed))
            draws.append(_rows(cfg))
    finally:
        linalg.svd_thin = svd_thin
    print("N,cond2,cond2_min,cond2_max,linf_error,linf_min,linf_max")
    for n, (cond, linf) in plain.items():
        conds = [d[n][0] for d in draws]
        linfs = [d[n][1] for d in draws]
        # np.min/np.max give nan when a draw's cell failed; repr keeps every
        # digit, so a row can be placed inside or outside a spread of 1e-5
        values = (cond, np.min(conds), np.max(conds), linf, np.min(linfs), np.max(linfs))
        print(",".join([str(n)] + [repr(float(v)) for v in values]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
