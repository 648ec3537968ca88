"""Command-line interface.

Subcommands:
    solve  --config <path> [--n <N>]               one CSV row per configured method
    sweep  --config <path> --out <path>            full sweep table as CSV
    basis  --config <path> --n <N> --samples <c> --out <path> [--method <m>]
    fit    --in <table.csv> --method <name>        growth-rate fit of ln(cond2) vs N

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O error.
"""

import argparse
import sys

from . import bench
from .errors import ConfigError, NumericalError


def _build_parser():
    parser = argparse.ArgumentParser(prog="mfs2d", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a single solve per configured method")
    solve.add_argument("--config", required=True)
    solve.add_argument("--n", type=int, default=None, help="basis size (default: first configured)")

    sweep = sub.add_parser("sweep", help="run the configured sweep and write a CSV table")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)

    basis = sub.add_parser("basis", help="dump basis-function traces along the boundary")
    basis.add_argument("--config", required=True)
    basis.add_argument("--n", type=int, required=True)
    basis.add_argument("--samples", type=int, required=True)
    basis.add_argument("--out", required=True)
    basis.add_argument("--method", default=None, help="default: first configured method")

    fit = sub.add_parser("fit", help="fit ln(cond2) growth against N from a sweep CSV")
    fit.add_argument("--in", dest="table", required=True)
    fit.add_argument("--method", required=True)
    return parser


def _cmd_solve(args) -> int:
    cfg = bench.parse_config(args.config)
    n = args.n if args.n is not None else cfg.n_values[0]
    if n <= 0:
        raise ConfigError("--n must be positive")
    table = bench.SweepTable(rows=[])
    for method in cfg.methods:
        row, _ = bench.run_single(cfg, method, n)
        table.rows.append(row)
    sys.stdout.write(bench.table_to_csv(table))
    return 0


def _cmd_sweep(args) -> int:
    cfg = bench.parse_config(args.config)
    table = bench.run_sweep(cfg)
    bench.write_table(table, args.out)
    for method, n, message in table.errors:
        sys.stderr.write(f"error: {method} N={n}: {message}\n")
    return 0


def _cmd_basis(args) -> int:
    cfg = bench.parse_config(args.config)
    if args.n <= 0:
        raise ConfigError("--n must be positive")
    if args.samples < 2:
        raise ConfigError("--samples must be >= 2")
    method = args.method or cfg.methods[0]
    context, ws = bench.build_method_context(cfg, method, args.n)
    bench.emit_basis_samples(context, ws.domain, args.samples, args.out)
    sys.stdout.write(args.out + "\n")
    return 0


def _cmd_fit(args) -> int:
    table = bench.read_table(args.table)
    fit = bench.fit_growth_rate(table, args.method)
    sys.stdout.write("slope,intercept\n")
    sys.stdout.write(f"{fit.slope!r},{fit.intercept!r}\n")
    return 0


_COMMANDS = {"solve": _cmd_solve, "sweep": _cmd_sweep, "basis": _cmd_basis, "fit": _cmd_fit}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
