"""Solver backends for the Laplace Dirichlet problem: direct, qr, svd.

All three share one workflow: assemble a collocation matrix, solve in the
least-squares sense, then evaluate the approximation anywhere and measure
its boundary error.

direct  -- kernel basis as-is; matrix entry (i, j) is the fundamental
           solution at collocation point i, source j, formed as
           -log(d^2) / (4 pi) from the squared distance (coordinates
           pre-scaled by an exact 2^-k only beyond 2^500).  Simple and
           accurate until its conditioning blows up exponentially with N.
qr      -- MFS-QR (Antunes, Adv. Comput. Math. 44, 2018) on the kernel
           expansion matrix: sources on a common circle, the matrix's real
           form is QR-factorized and each row of the triangular factor is
           divided by its scale (R/rho)^m / m, so the basis change stays
           well-scaled.  A scale that underflows is refused.  Conditioning
           grows more slowly than direct but still exponentially off the disk.
svd     -- sources anywhere outside the scaled boundary disk; the same
           expansion matrix is pushed through the Arnoldi coupling and an
           SVD; the rows of the right singular-vector block define a basis
           whose collocation matrix stays O(1)-conditioned at any N.

Every basis is feature rows times a coordinate matrix (basis_values, the one
dispatch on the context): kernels and identity for direct, Re z^m, Im z^m and
`transform` for qr, the Arnoldi frame in z and `basis_coords` for svd, where
z = (x + iy)/R about the origin, R the maximum boundary radius.  All three
evaluate coefficient-first, rows @ (coords.T @ c), and share one solve body.
A system matrix is the identity block at the collocation points, so an svd
basis solves on any point set.  Every backend makes its feature rows a block
of points at a time and contracts each block at once, so no (points x width)
feature matrix is stored: arnoldi.CHUNK points for qr and svd, and for direct
as many as keep a block within _KERNEL_BLOCK entries (1 MiB), at most CHUNK.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import arnoldi, linalg
from .arnoldi import ArnoldiFactor, arnoldi_vandermonde, coupling_matrix, evaluate_basis
from .errors import ConfigError, DegenerateSystemError, RankDeficiencyError, SingularityError
from .expansion import ExpansionSetup, _powers
from .geometry import BoundaryCurve, PointSet, sample_collocation, scaled_coordinate

_COINCIDENCE_RTOL = 1e-14
_KERNEL_BLOCK = 2**17    # float64 entries (1 MiB) per direct scratch block


# --- boundary data -----------------------------------------------------------


class BoundaryData:
    """Named Dirichlet datum g(x, y), evaluable at arbitrary points."""

    def __init__(self, name: str, fn, params=None):
        self.name = name
        self._fn = fn
        self.params = dict(params or {})

    def values(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._fn(pts[:, 0], pts[:, 1])

    def __repr__(self):
        return f"<BoundaryData {self.name}>"


def _harmonic_re(k):
    def fn(x, y):
        # Overflow is left as inf/nan for linalg's finiteness check to report.
        with np.errstate(over="ignore", invalid="ignore"):
            return ((x + 1j * y) ** k).real

    return fn


def make_boundary_data(name: str, **params) -> BoundaryData:
    """Catalog: x2y3, osc10, harmonic_k (takes an integral k; 2.0 is accepted, 2.5 is not)."""
    if name == "x2y3":
        if params:
            raise ConfigError("x2y3 takes no parameters")
        return BoundaryData(name, lambda x, y: x**2 * y**3)
    if name == "osc10":
        if params:
            raise ConfigError("osc10 takes no parameters")
        return BoundaryData(name, lambda x, y: np.cos(10 * x) * np.sin(10 * y))
    if name == "harmonic_k":
        if set(params) != {"k"}:
            raise ConfigError("harmonic_k requires exactly the parameter k")
        k = params["k"]
        if not float(k).is_integer():
            raise ConfigError(f"harmonic_k needs an integral k, got {k!r}")
        k = int(k)
        return BoundaryData(name, _harmonic_re(k), {"k": k})
    raise ConfigError(f"unknown boundary data {name!r}; known: x2y3, osc10, harmonic_k")


# --- records and bases -------------------------------------------------------


@dataclass
class SolveRecord:
    """Outcome of one least-squares solve.

    linf_boundary_error and max_imag_on_boundary stay NaN until
    boundary_error() fills them.  `context` keeps whatever the method needs
    to evaluate the solution later (sources for direct, basis otherwise).
    """

    method: str
    n_basis: int
    n_colloc: int
    coefficients: np.ndarray = field(repr=False)
    cond2: float
    runtime_ms: float
    linf_boundary_error: float = math.nan
    max_imag_on_boundary: float = math.nan
    context: object = field(default=None, repr=False)


@dataclass(frozen=True)
class SvdBasis:
    """Well-conditioned basis from the SVD of the coupled expansion matrix.

    Row n of `basis_coords` holds the coordinates of basis function n in the
    stacked Arnoldi frame (z block, then the w block without its duplicated
    constant); the rows are orthonormal.  Because the frame itself is
    uniformly well conditioned on the collocation set, the system matrix
    conditioning is bounded by the frame's, independent of N.  `frame_times`
    evaluates the frame at any points, system matrices included, through one
    replay of the z factor.
    """

    basis_coords: np.ndarray       # (N, 2p+1) rows of the right singular-vector block
    z_factor: ArnoldiFactor
    scale_radius: float
    count: int
    degree: int

    def frame_times(self, points, coef) -> np.ndarray:
        """Frame [q_z0..q_zp, q_w1..q_wp] at (n, 2) points times a (2p+1,) or (2p+1, k) block.

        The frame itself is never formed.  The w factor is built on conj(z)
        and is bitwise the conjugate of the z factor, so the w block's part
        is conj(Q_z @ conj(b)): one replay on z carries the block [a | conj b]
        and the result is y_a + conj(y_b).
        """
        z = scaled_coordinate(points, self.scale_radius)
        p = self.degree
        coef = np.asarray(coef)
        cols = coef.reshape(2 * p + 1, -1)
        k = cols.shape[1]
        block = np.zeros((p + 1, 2 * k), dtype=complex)
        block[:, :k] = cols[: p + 1]
        np.conj(cols[p + 1 :], out=block[1:, k:])
        y = evaluate_basis(self.z_factor, z, block)
        return (y[:, :k] + np.conj(y[:, k:])).reshape(z.shape + coef.shape[1:])


@dataclass(frozen=True)
class QrBasis:
    """Rescaled triangular transform mapping scaled harmonic monomials to the basis.

    Basis function n at (x, y) is row n of `transform` applied to
    [1, Re z, Im z, ..., Re z^p, Im z^p] with z = (x + iy) / scale_radius
    (R, the maximum boundary radius): 1, then the float view of the complex
    powers z^1 .. z^p, the layout build_qr_basis takes of the expansion
    matrix.  Every monomial is O(1) on the boundary and the R^m growth sits
    in the row scales (R/rho)^m / m of `transform` instead.
    """

    transform: np.ndarray    # (N, 2p+1) real
    scale_radius: float
    count: int
    degree: int


# --- direct backend ----------------------------------------------------------


def _kernel_rows(points: np.ndarray, sources: PointSet, rows: int):
    """Row writer fill(lo, d): d[i, j] = -log|x_(lo+i) - y_j| / (2 pi), d (b, N), b <= rows.

    Each value is -log(dx^2 + dy^2) / (4 pi): two subtractions, two squares,
    an add, one log and one scale, all in place, with no hypot.  Points and
    sources are first scaled by 2^-k, exactly, so every coordinate is below
    2^500 and the squares cannot overflow; k = 0 (no copy, no extra pass)
    unless some coordinate or source radius reaches 2^500, and otherwise the
    constant -k log 2 / (2 pi) is added back.  A coincidence is a scaled
    distance below the tolerance 1e-14 * max(1, max source radius), also
    scaled, or below 2^-500, where its square would lose digits; it raises
    SingularityError naming the global point index of the first pair.  The
    dy scratch block (rows, N) is allocated once.
    """
    radius = float(np.max(sources.radii))
    k = max(0, math.frexp(max(radius, float(np.max(np.abs(points), initial=0.0))))[1] - 500)
    scale = math.ldexp(1.0, -k)
    s = sources.points
    if k:
        points, s = points * scale, s * scale
    tol2 = max(_COINCIDENCE_RTOL * max(1.0, radius) * scale, 2.0**-500) ** 2
    shift = -k * math.log(2.0) / (2.0 * math.pi)
    sx, sy = s[:, 0], s[:, 1]
    dy = np.empty((min(rows, points.shape[0]), sources.count))

    def fill(lo, d):
        b = d.shape[0]
        t = dy[:b]
        np.subtract(points[lo : lo + b, 0, None], sx, out=d)
        np.subtract(points[lo : lo + b, 1, None], sy, out=t)
        np.multiply(d, d, out=d)
        np.multiply(t, t, out=t)
        np.add(d, t, out=d)
        if np.min(d, initial=math.inf) < tol2:
            i, j = np.argwhere(d < tol2)[0]
            raise SingularityError(f"point {lo + i} coincides with source {j}")
        np.log(d, out=d)
        np.multiply(d, -0.25 / math.pi, out=d)
        if k:
            np.add(d, shift, out=d)

    return fill


def assemble_direct(sources: PointSet, colloc: PointSet) -> np.ndarray:
    """System matrix (M, N) real float64: the kernels at the collocation points.

    SingularityError (indices reported) when a point coincides with a source.
    """
    return basis_values(sources, colloc.points)


def _solve(method: str, a: np.ndarray, g_values, context) -> SolveRecord:
    t0 = time.perf_counter()
    coeff = linalg.lstsq(a, g_values)
    elapsed = (time.perf_counter() - t0) * 1e3
    return SolveRecord(
        method=method,
        n_basis=a.shape[1],
        n_colloc=a.shape[0],
        coefficients=coeff,
        cond2=linalg.cond2(a),
        runtime_ms=elapsed,
        context=context,
    )


def solve_direct(a: np.ndarray, g_values, sources: Optional[PointSet] = None) -> SolveRecord:
    """Least-squares solve of the direct collocation system."""
    return _solve("direct", a, g_values, sources)


# --- svd backend -------------------------------------------------------------


def build_svd_basis(
    setup: ExpansionSetup, colloc: PointSet, rank_tol: float = 0.0
) -> SvdBasis:
    """Construct the well-conditioned basis on the given collocation set.

    Runs independent Arnoldi factorizations on the scaled boundary nodes
    z_i = (x_i + i y_i)/R and their conjugates, couples them with the
    expansion matrix, and takes the SVD of the product; the right
    singular-vector rows define the new basis.

    The trailing singular values decay exponentially with the basis size
    (they mirror the conditioning of the kernel basis itself), which is
    harmless here because only the orthonormal rows are kept.  `rank_tol`
    therefore defaults to 0 and exists to flag structurally redundant
    sources: with e.g. duplicated source points the tail collapses to
    roundoff immediately and a small positive tolerance catches it.

    Raises
    ------
    RankDeficiencyError
        S[-1] <= rank_tol * S[0] (reports the trailing singular values).
    """
    n = setup.count
    p = setup.degree
    if 2 * p + 1 > colloc.count:
        raise ValueError(
            f"{colloc.count} collocation points cannot resolve 2*{p}+1 frame functions"
        )
    z = scaled_coordinate(colloc.points, setup.scale_radius)
    z_factor = arnoldi_vandermonde(z, p)
    w_factor = arnoldi_vandermonde(np.conj(z), p)
    reduced = setup.matrix @ coupling_matrix(z_factor, w_factor)    # (N, 2p+1)
    _, s, vh = linalg.svd_thin(reduced)
    if s[-1] <= rank_tol * s[0]:
        raise RankDeficiencyError(s[max(0, n - 3) :].tolist())
    return SvdBasis(
        basis_coords=vh[:n],
        z_factor=z_factor,
        scale_radius=setup.scale_radius,
        count=n,
        degree=p,
    )


def assemble_svd_system(basis: SvdBasis, colloc: PointSet) -> np.ndarray:
    """System matrix (M, N) complex: the basis values at the collocation points."""
    return basis_values(basis, colloc.points)


def solve_svd(basis: SvdBasis, a: np.ndarray, g_values) -> SolveRecord:
    """Complex least-squares solve in the well-conditioned basis."""
    return _solve("svd", a, g_values, basis)


# --- qr backend --------------------------------------------------------------


def _real_monomials(z: np.ndarray, degree: int, out=None) -> np.ndarray:
    """[1, Re z, Im z, ..., Re z^p, Im z^p]: 1, then the float view of _powers, shape (n, 2p+1)."""
    out = np.empty((z.shape[0], 2 * degree + 1)) if out is None else out
    out[:, 0] = 1.0
    _powers(z, degree, out=out[:, 1:].view(complex))
    return out


def build_qr_basis(setup: ExpansionSetup) -> QrBasis:
    """MFS-QR basis for sources on a common origin-centered circle of radius rho.

    This is the MFS-QR of Antunes, "Reducing the ill conditioning in the
    method of fundamental solutions", Adv. Comput. Math. 44 (2018), on the
    expansion matrix svd also uses: `setup` carries the sources, the degree
    p and R (the scale radius) as build_svd_basis takes them.  Its real form
    [log|y_j|, 2 Re b_jm, -2 Im b_jm] (b_jm = -u_j^m / (2m)) is the
    trigonometric matrix [-1, -cos(m a_j), -sin(m a_j)] times diag(d),
    d_0 = log(1/rho) and d_m = (R/rho)^m / m.  It is QR-factorized and row k
    of the triangular factor is divided by d_k, which flattens the kernel's
    geometric decay.  The transform acts on Re z^m, Im z^m of z = (x + iy)/R,
    so the system matrix columns stay O(1) on a boundary of maximum radius R.

    Raises
    ------
    ValueError
        2p+1 <= N: the monomial space must be wider than the basis.
    ConfigError
        Sources not on a common circle (relative radius spread > 1e-9) or
        source radius 1 (d_0 vanishes).
    DegenerateSystemError
        The last row scale d_(N-1) underflows: sources too far for N.
    """
    n = setup.count
    p = setup.degree
    if 2 * p + 1 <= n:
        raise ValueError(f"degree {p} too small for {n} sources (need 2p+1 > N)")
    radii = setup.sources.radii
    radius = float(np.mean(radii))
    if np.max(np.abs(radii - radius)) > 1e-9 * radius:
        raise ConfigError("qr backend requires all sources on a common circle")
    eps = 1.0 / radius
    if eps == 1.0:
        raise ConfigError("qr backend is undefined for source radius exactly 1")
    e = setup.matrix
    real = np.column_stack([e[:, 0].real, (2 * np.conj(e[:, 1 : p + 1])).view(float)])
    r = np.linalg.qr(real, mode="r")    # (N, 2p+1)
    m = np.arange(2, n + 1) // 2    # the degree of rows 1 .. N-1
    d = np.concatenate(([math.log(eps)], (setup.scale_radius * eps) ** m / m))
    if abs(d[-1]) < np.finfo(float).tiny:
        raise DegenerateSystemError(f"qr row scale (R/rho)^m/m underflows at m = {n // 2}")
    return QrBasis(transform=r / d[:, None], scale_radius=setup.scale_radius, count=n, degree=p)


def assemble_qr_system(basis: QrBasis, colloc: PointSet) -> np.ndarray:
    """System matrix (M, N) real float64: the basis values at the collocation points."""
    return basis_values(basis, colloc.points)


def solve_qr(basis: QrBasis, a: np.ndarray, g_values) -> SolveRecord:
    """Least-squares solve of the (real) qr collocation system."""
    return _solve("qr", a, g_values, basis)


# --- evaluation and error measurement ---------------------------------------


def basis_values(context, points: np.ndarray, coef=None) -> np.ndarray:
    """Basis functions of a context at (n, 2) points times a coefficient block.

    `context` is a PointSet (direct kernels), QrBasis or SvdBasis; coef is
    (N, k) or (N,) on its basis functions, and None (the identity) gives one
    column per function.  This is the one dispatch on the context: every
    basis is feature rows times its coordinates, and the coordinates are
    applied to coef before the rows are (coefficient-first).

    qr rows are written arnoldi.CHUNK points at a time, direct rows
    min(CHUNK, _KERNEL_BLOCK // N) at a time (at least one), into one buffer
    per call and contracted at once (direct rows with coef None go straight
    into the result), so no (n, width) feature matrix is stored.
    The kernel values are those of the whole matrix, bitwise; a contraction
    can differ from the one-shot product by summation order, as when BLAS
    handles a block of one point alone.
    """
    if isinstance(context, SvdBasis):
        block = context.basis_coords.T if coef is None else context.basis_coords.T @ coef
        return context.frame_times(points, block)
    points = np.asarray(points)
    if isinstance(context, PointSet):
        width = context.count
        step = max(1, min(arnoldi.CHUNK, _KERNEL_BLOCK // max(width, 1)))
        fill = _kernel_rows(points, context, step)
        coords = None if coef is None else np.asarray(coef)
    elif isinstance(context, QrBasis):
        z = scaled_coordinate(points, context.scale_radius)
        width, step = 2 * context.degree + 1, arnoldi.CHUNK

        def fill(lo, rows):
            _real_monomials(z[lo : lo + rows.shape[0]], context.degree, out=rows)

        coords = context.transform.T if coef is None else context.transform.T @ coef
    else:
        raise ValueError("context must be a PointSet, SvdBasis, or QrBasis")
    n = points.shape[0]
    if coords is None:
        out = np.empty((n, width))
    else:
        out = np.empty((n,) + coords.shape[1:], dtype=np.result_type(coords, float))
        buf = np.empty((min(step, n), width))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        if coords is None:
            fill(lo, out[lo:hi])
        else:
            fill(lo, buf[: hi - lo])
            np.matmul(buf[: hi - lo], coords, out=out[lo:hi])
    return out


_CONTEXT_TYPES = {"direct": PointSet, "qr": QrBasis, "svd": SvdBasis}


def _evaluate_complex(record: SolveRecord, context, points: np.ndarray) -> np.ndarray:
    kind = _CONTEXT_TYPES.get(record.method)
    if kind is None or not isinstance(context, kind):
        raise ValueError(f"{record.method!r} evaluation cannot use a {type(context).__name__}")
    return basis_values(context, points, record.coefficients)


def evaluate_solution(record: SolveRecord, context, points):
    """Real part of the approximation at the given point(s).

    `context` is the sources (direct) or basis (qr/svd); None falls back to
    the one stored on the record.  Accepts a pair or an (n, 2) array;
    returns a scalar for a single point.
    """
    ctx = record.context if context is None else context
    pts = np.asarray(points, dtype=float)
    vals = _evaluate_complex(record, ctx, np.atleast_2d(pts)).real
    return float(vals[0]) if pts.ndim == 1 else vals


def boundary_error(
    record: SolveRecord, curve: BoundaryCurve, data: BoundaryData, count: int = 10001
) -> float:
    """Max |u - g| over `count` uniform-parameter boundary points.

    Also records the largest imaginary residue of the complex evaluation on
    the record.  Uses the record's stored evaluation context.
    """
    if record.context is None:
        raise ValueError("record has no stored evaluation context")
    pts = sample_collocation(curve, count).points
    vals = _evaluate_complex(record, record.context, pts)
    err = float(np.max(np.abs(vals.real - data.values(pts))))
    record.linf_boundary_error = err
    record.max_imag_on_boundary = float(np.max(np.abs(vals.imag)))
    return err
