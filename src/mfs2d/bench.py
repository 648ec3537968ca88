"""Experiment runner: sweeps over basis sizes, CSV tables, growth-rate fits.

A flat INI-style config file describes one experiment (domain curve, source
curve, boundary data, methods, basis sizes).  run_sweep solves every
(method, N) cell, measures conditioning and boundary error, and collects the
rows in a SweepTable that serializes to CSV with the fixed header

    method,N,M,p,cond2,linf_error,max_imag,runtime_ms,constraint_margin

whose columns are the fields of SweepRow.  Rows that fail numerically (e.g.
svd sources violating the separation constraint, or a cell over the
FEATURE_BYTES_MAX budget) are reported on the table's error list; the sweep
continues.  Floats are written with repr, so a table round-trips byte-identically.

run_single (sweep cells) and build_method_context (basis dumps) share _sample,
which draws a cell's points, and _build, which checks and builds its backend.
"""

import configparser
import io
import math
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateSystemError
from .errors import InsufficientDataError, NumericalError, SizeLimitError
from .expansion import FEATURE_BYTES_MAX, MACHINE_EPS, setup_expansion
from .expansion import truncation_order    # not called here: perfbench wraps bench.truncation_order
from .geometry import (
    BoundaryCurve,
    PointSet,
    check_source_constraint,
    make_curve,
    max_boundary_radius,
    sample_collocation,
    sample_sources,
)
from .solvers import (
    BoundaryData,
    SvdBasis,
    assemble_direct,
    assemble_qr_system,
    assemble_svd_system,
    basis_values,
    boundary_error,
    build_qr_basis,
    build_svd_basis,
    make_boundary_data,
    solve_direct,
    solve_qr,
    solve_svd,
)

CSV_HEADER = "method,N,M,p,cond2,linf_error,max_imag,runtime_ms,constraint_margin"
_METHODS = ("direct", "qr", "svd")
_SATURATION_COND = 1e15
# Rounding in the points shifts a direct trace -log|x - y_j|/(2 pi) by a few eps
# on the shipped geometries, so a max-abs at or below this floor (4500 eps) is
# noise; real traces sit far above it (smallest on star_circle2: 0.187).
_TRACE_FLOOR = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    domain: str
    source: str
    data: str
    methods: tuple
    n_values: tuple
    domain_params: dict = field(default_factory=dict)
    source_params: dict = field(default_factory=dict)
    data_params: dict = field(default_factory=dict)
    m_rule: int = 2
    tol: float = MACHINE_EPS
    error_samples: int = 10001
    timing: bool = True

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("method list must be nonempty")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError("methods must not repeat")
        for m in self.methods:
            if m not in _METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {', '.join(_METHODS)}")
        if not self.n_values:
            raise ConfigError("N list must be nonempty")
        if any(n <= 0 for n in self.n_values):
            raise ConfigError("N values must be positive")
        if any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
            raise ConfigError("N values must be strictly ascending")
        if self.m_rule < 1:
            raise ConfigError("M_rule must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol!r}")
        if self.error_samples < 2:
            raise ConfigError("error_samples must be >= 2")


@dataclass(frozen=True)
class SweepRow:
    method: str
    n: int
    m: int
    p: int
    cond2: float
    linf_error: float
    max_imag: float
    runtime_ms: float
    constraint_margin: float


# (name, type) of each CSV column, in CSV_HEADER order
_COLUMNS = tuple((f.name, f.type) for f in fields(SweepRow))


@dataclass
class SweepTable:
    rows: list
    errors: list = field(default_factory=list)    # (method, n, message)

    def for_method(self, method: str):
        return [r for r in self.rows if r.method == method]


# --- config parsing ----------------------------------------------------------


def _parse_timing(text: str) -> bool:
    text = text.strip().lower()
    if text not in ("on", "off"):
        raise ConfigError("timing must be 'on' or 'off'")
    return text == "on"


def _parse_n_values(text: str):
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        if step <= 0:
            raise ConfigError("range step must be positive")
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in text.split(","))


# [run] key -> (ExperimentConfig field, parser); the dataclass holds the defaults
_RUN_FIELDS = {
    "timing": ("timing", _parse_timing),
    "methods": ("methods", lambda text: tuple(m.strip() for m in text.split(",") if m.strip())),
    "n": ("n_values", _parse_n_values),
    "m_rule": ("m_rule", int),
    "tol": ("tol", float),
    "error_samples": ("error_samples", int),
}


def _named_section(cp, section, key):
    """The catalog name under `key` and the numeric parameters of a section."""
    if section not in cp:
        raise ConfigError(f"missing [{section}] section")
    items = dict(cp[section])
    if key not in items:
        raise ConfigError(f"[{section}] needs a '{key}' key")
    name = items.pop(key)
    params = {}
    for k, v in items.items():
        try:
            params[k] = float(v)
        except ValueError:
            raise ConfigError(f"[{section}] {k}: expected a number, got {v!r}") from None
    return name, params


def _text_lines(path):
    """The lines of a UTF-8 file, newlines translated as open() does.

    Bytes that are not UTF-8 raise ConfigError naming the file and the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    return io.StringIO(text, newline=None).readlines()


def parse_config(path) -> ExperimentConfig:
    """Parse a strict key=value config file with [domain]/[source]/[data]/[run] sections.

    Values are taken literally (no % interpolation).  A file that is not
    UTF-8, or that ConfigParser rejects (a repeated key or section, a line
    before the first header or without '='), raises ConfigError naming the
    file and the line: ConfigParser's own message, on one line.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_file(_text_lines(path), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from None
    extra = set(cp.sections()) - {"domain", "source", "data", "run"}
    if extra:
        raise ConfigError(f"unknown config sections {sorted(extra)}")

    domain, domain_params = _named_section(cp, "domain", "curve")
    source, source_params = _named_section(cp, "source", "curve")
    data, data_params = _named_section(cp, "data", "name")

    if "run" not in cp:
        raise ConfigError("missing [run] section")
    run = dict(cp["run"])
    unknown = set(run).difference(_RUN_FIELDS)
    if unknown:
        raise ConfigError(f"unknown [run] keys {sorted(unknown)}")
    if "methods" not in run or "n" not in run:
        raise ConfigError("[run] needs 'methods' and 'N' keys")
    try:
        cfg = ExperimentConfig(
            domain=domain,
            source=source,
            data=data,
            domain_params=domain_params,
            source_params=source_params,
            data_params=data_params,
            **{name: parse(run[key]) for key, (name, parse) in _RUN_FIELDS.items() if key in run},
        )
    except ValueError as exc:
        raise ConfigError(f"bad [run] value: {exc}") from None
    # fail fast on unknown catalog names
    make_curve(cfg.domain, **cfg.domain_params)
    make_curve(cfg.source, **cfg.source_params)
    make_boundary_data(cfg.data, **cfg.data_params)
    return cfg


# --- running -----------------------------------------------------------------


@dataclass(frozen=True)
class _Workspace:
    domain: BoundaryCurve
    source: BoundaryCurve
    data: BoundaryData
    boundary_radius: float


def _workspace(cfg: ExperimentConfig) -> _Workspace:
    domain = make_curve(cfg.domain, **cfg.domain_params)
    if domain.folds:
        raise ConfigError(f"domain {domain.name} folds back on itself at {domain.folds} samples")
    return _Workspace(
        domain=domain,
        source=make_curve(cfg.source, **cfg.source_params),
        data=make_boundary_data(cfg.data, **cfg.data_params),
        boundary_radius=max_boundary_radius(domain),
    )


def _check_size(rows: int, width: int, itemsize: int = 8):
    """Refuse a rows x width feature matrix that would exceed FEATURE_BYTES_MAX."""
    if width > FEATURE_BYTES_MAX // (rows * itemsize):
        raise SizeLimitError(
            f"{rows} x {width} feature matrix needs {rows * width * itemsize / 2**30:.3g} GiB, "
            f"over the {FEATURE_BYTES_MAX / 2**30:g} GiB budget"
        )


def _sample(cfg: ExperimentConfig, ws: _Workspace, n: int):
    """Collocation points, sources and separation margin of an N-source cell.

    Every backend's feature matrix is at least N wide, so a cell whose N
    kernels alone are over budget is refused before anything is sampled.
    """
    _check_size(max(cfg.error_samples, cfg.m_rule * n), n)
    colloc = sample_collocation(ws.domain, cfg.m_rule * n)
    sources = sample_sources(ws.source, n)
    return colloc, sources, check_source_constraint(sources, ws.boundary_radius)


def _build(cfg: ExperimentConfig, method: str, ws: _Workspace, colloc, sources):
    """Evaluation context and expansion degree (0 for direct) of one cell."""
    n = sources.count
    rows = max(cfg.error_samples, colloc.count)
    if method == "direct":
        return sources, 0    # _sample checked the rows x N kernel matrix
    if method == "svd":
        m = colloc.count
        if 2 * ((m - 1) // 2) + 1 < n:
            raise ConfigError(
                f"M_rule={cfg.m_rule} gives only {m} collocation points, too few to "
                f"carry {n} svd basis functions (need 2*floor((M-1)/2)+1 >= N)"
            )
        setup = setup_expansion(
            sources, ws.boundary_radius, n, cfg.tol, (m - 1) // 2, (rows, 16, FEATURE_BYTES_MAX)
        )
        return build_svd_basis(setup, colloc), setup.degree
    if method == "qr":    # 2p+1 > N real monomials of 8 bytes
        setup = setup_expansion(
            sources, ws.boundary_radius, n + 1, cfg.tol, budget=(rows, 8, FEATURE_BYTES_MAX)
        )
        return build_qr_basis(setup), setup.degree
    raise ConfigError(f"unknown method {method!r}; known: {', '.join(_METHODS)}")


def run_single(cfg: ExperimentConfig, method: str, n: int, ws: Optional[_Workspace] = None):
    """Solve one (method, N) cell; returns (SweepRow, SolveRecord)."""
    ws = ws or _workspace(cfg)
    colloc, sources, margin = _sample(cfg, ws, n)

    t0 = time.perf_counter()
    context, p = _build(cfg, method, ws, colloc, sources)
    g = ws.data.values(colloc.points)
    if method == "direct":
        record = solve_direct(assemble_direct(context, colloc), g, context)
    elif method == "svd":
        record = solve_svd(context, assemble_svd_system(context, colloc), g)
    else:
        record = solve_qr(context, assemble_qr_system(context, colloc), g)
    runtime_ms = (time.perf_counter() - t0) * 1e3    # build, assemble and solve
    row = SweepRow(
        method=method,
        n=n,
        m=colloc.count,
        p=p,
        cond2=record.cond2,
        linf_error=boundary_error(record, ws.domain, ws.data, cfg.error_samples),
        max_imag=0.0,    # every system, coefficient and evaluation is real
        runtime_ms=runtime_ms if cfg.timing else 0.0,
        constraint_margin=margin,
    )
    return row, record


def run_sweep(cfg: ExperimentConfig) -> SweepTable:
    """Run every (method, N) cell; numerical failures become error entries."""
    ws = _workspace(cfg)
    table = SweepTable(rows=[])
    for method in cfg.methods:
        for n in cfg.n_values:
            try:
                table.rows.append(run_single(cfg, method, n, ws)[0])
            except NumericalError as exc:
                table.errors.append((method, n, str(exc)))
    table.rows.sort(key=lambda r: (r.method, r.n))
    return table


# --- CSV ---------------------------------------------------------------------


def table_to_csv(table: SweepTable) -> str:
    """The table as CSV; str of a float is its repr, so the text round-trips."""
    rows = [",".join(str(kind(getattr(r, name))) for name, kind in _COLUMNS) for r in table.rows]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def write_table(table: SweepTable, path):
    with open(path, "w") as fh:
        fh.write(table_to_csv(table))


def read_table(path) -> SweepTable:
    lines = [ln.rstrip("\n") for ln in _text_lines(path) if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header in {path}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_COLUMNS):
            raise ConfigError(f"malformed CSV row {ln!r}: expected {len(_COLUMNS)} fields")
        try:
            rows.append(SweepRow(*(kind(v) for (_, kind), v in zip(_COLUMNS, parts))))
        except ValueError as exc:
            raise ConfigError(f"malformed CSV row {ln!r}: {exc}") from None
    return SweepTable(rows=rows)


# --- analysis ----------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float


def fit_growth_rate(table: SweepTable, method: str) -> GrowthFit:
    """Least-squares slope of ln(cond2) against N over pre-saturation rows.

    Rows with cond2 >= 1e15 (or non-finite) are excluded.  A remaining row
    with |N| > 2^53, where N is no longer exact in float64, raises
    ConfigError naming it.  Fewer than four distinct N, or N values too close
    together for the fit to have rank 2, raise InsufficientDataError.
    """
    rows = [
        r
        for r in table.for_method(method)
        if math.isfinite(r.cond2) and 0.0 < r.cond2 < _SATURATION_COND
    ]
    for r in rows:
        if abs(r.n) > 2**53:
            raise ConfigError(f"{method} row N={r.n}: |N| above 2^53 cannot be fitted")
    distinct = len({r.n for r in rows})
    if distinct < 4:
        raise InsufficientDataError(
            f"{distinct} distinct N in the usable rows for method {method!r}, need at least 4"
        )
    (slope, intercept), _, rank, _, _ = np.polyfit(
        [r.n for r in rows], np.log([r.cond2 for r in rows]), 1, full=True
    )
    if rank < 2:
        raise InsufficientDataError(f"the N values of method {method!r} are too close to fit")
    return GrowthFit(slope=float(slope), intercept=float(intercept))


# --- basis sampling ----------------------------------------------------------


def _basis_csv(path, t, values, labels):
    lines = ["t," + ",".join(labels)]
    lines += [",".join(map(str, row)) for row in np.column_stack([t, values]).tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_basis_samples(context, curve: BoundaryCurve, count: int, path):
    """Dump basis-function traces along the boundary to CSV.

    One file at `path`.  direct (PointSet context): each column a
    fundamental-solution trace psi_j normalized to unit max-abs.  qr (QrBasis
    context) and svd (SvdBasis context): raw values, labelled psi_j for qr
    and phi_j for svd.
    Raises SizeLimitError, before sampling, when the count x width feature
    matrix is over FEATURE_BYTES_MAX, and DegenerateSystemError when a direct
    trace is too small to normalize.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if isinstance(context, PointSet):
        _check_size(count, context.count)
    else:
        _check_size(count, 2 * context.degree + 1, 16 if isinstance(context, SvdBasis) else 8)
    grid = sample_collocation(curve, count)
    traces = basis_values(context, grid.points)
    if isinstance(context, PointSet):
        peaks = np.max(np.abs(traces), axis=0)
        if np.min(peaks) <= _TRACE_FLOOR:
            j = int(np.argmin(peaks))
            raise DegenerateSystemError(f"direct trace psi{j + 1} vanishes, max-abs {peaks[j]:.3g}")
        traces = traces / peaks
    name = "phi" if isinstance(context, SvdBasis) else "psi"
    _basis_csv(path, grid.params, traces, [f"{name}{j + 1}" for j in range(context.count)])


def build_method_context(cfg: ExperimentConfig, method: str, n: int):
    """Construct the evaluation context a basis dump needs for (method, N)."""
    ws = _workspace(cfg)
    return _build(cfg, method, ws, *_sample(cfg, ws, n)[:2])[0], ws
