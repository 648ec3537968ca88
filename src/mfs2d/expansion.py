"""Log-kernel expansion in real harmonic monomials of one complex coordinate.

A point x = (x, y) is taken as z = (x + iy)/R about the origin, R the
maximum boundary radius, and each exterior source y_j, read as a complex
number, as u_j = R/y_j.  For |z| <= 1 < 1/|u_j| the log kernel expands as

    log|x - y_j| = log|y_j| - Re sum_{m>=1} (z u_j)^m / m
                 = log|y_j| + sum_{m>=1} (-Re u_j^m Re z^m + Im u_j^m Im z^m) / m.

The series converges geometrically with ratio q = max_j |u_j| < 1; the
truncation order is chosen so the tail, bounded by q^{p+1} * Phi(q, 1, p+1)
with Phi the Hurwitz-Lerch transcendent at s=1, drops below a tolerance.
The real expansion matrix maps the real monomial feature vector

    F(z) = [1, Re z, Im z, ..., Re z^p, Im z^p]

(real_monomials, the one feature writer) to the vector of kernel values for
all sources: row j is log|y_j|, then the float view of conj(u_j^m) / (-m).
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConstraintViolationError, SingularityError, SizeLimitError
from .geometry import PointSet, scaled_coordinate, series_ratio

MACHINE_EPS = float(np.finfo(np.float64).eps)
# Default byte budget of one feature matrix.  bench charges every cell's widest
# matrix to it: direct's rows x N kernels, qr's rows x (2p+1) real monomials and
# svd's frame at 16 bytes an entry; the backends evaluate those in blocks of
# points, so it bounds N and p, and with them the work, not memory held.
# setup_expansion refuses a degree over a caller's budget, by default 16 bytes
# for each of the N x (2p+1) expansion entries: twice the real matrix's bytes,
# a charge that bounds the work of an uncapped call (order search, power loop).
FEATURE_BYTES_MAX = 1 << 30
# Work bound of the degree rule: the order search and the power loop take O(p) steps
MAX_DEGREE = 1 << 22


def _coords(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError("expected a point with two coordinates")
    return a


def log_kernel(x, y) -> float:
    """log of the Euclidean distance |x - y|.

    Raises
    ------
    SingularityError
        Coincident points.
    """
    d = float(np.hypot(*(_coords(x) - _coords(y))))
    if d == 0.0:
        raise SingularityError("log kernel evaluated at coincident points")
    return math.log(d)


def fundamental_solution(x, y) -> float:
    """-log|x - y| / (2*pi), the 2D Laplace fundamental solution."""
    return -log_kernel(x, y) / (2.0 * math.pi)


def hurwitz_lerch_phi1(z: float, a: int) -> float:
    """Hurwitz-Lerch transcendent Phi(z, 1, a) = sum_{k>=0} z^k / (a + k).

    Where it is accurate, Phi is the closed form kernel_tail(z, a - 1) / z^a:
    O(a) work, tried when a is below the series' length.  It is accepted when
    the tail is at least 1/16 of -log(1 - z), so that kernel_tail's rounding
    of a few eps * |log(1 - z)| is at most 64 eps relative.  Otherwise the
    series is summed TAIL_BLOCK terms at a time, each block exactly, until
    a term falls below 1e-18 of the running sum: about log(1e-18)/log(z)
    terms.  Memory is O(TAIL_BLOCK) either way.
    """
    if not 0.0 <= z < 1.0:
        raise ValueError("z must lie in [0, 1)")
    a = int(a)
    if a < 1:
        raise ValueError("a must be a positive integer")
    if z == 0.0:
        return 1.0 / a
    if a - 1 < math.log(1e-18) / math.log(z):
        tail = kernel_tail(z, a - 1)
        if tail >= -math.log1p(-z) / 16.0:
            return tail / z**a
    blocks, partial, lo = [], 0.0, 0
    while True:
        ks = np.arange(lo, lo + TAIL_BLOCK, dtype=float)
        terms = z**ks / (a + ks)
        blocks.append(math.fsum(terms.tolist()))
        partial += blocks[-1]
        if terms[-1] < 1e-18 * partial:
            return math.fsum(blocks)
        lo += TAIL_BLOCK


TAIL_BLOCK = 4096    # terms per numpy block of the series sums in this module


def kernel_tail(ratio: float, order: int) -> float:
    """Kernel tail sum_{k>order} q^k/k = -log(1-q) - sum_{k<=order} q^k/k.

    The head has `order` terms, summed TAIL_BLOCK at a time, so the cost
    does not grow as q -> 1.  The subtraction loses about eps * |log(1-q)|
    absolutely: accurate where the tail is far above that, as when a degree
    cap binds.
    """
    head = []
    for lo in range(1, int(order) + 1, TAIL_BLOCK):
        ks = np.arange(lo, min(lo + TAIL_BLOCK, int(order) + 1), dtype=float)
        head.append(math.fsum((ratio**ks / ks).tolist()))
    return -math.log1p(-ratio) - math.fsum(head)


def truncation_order(ratio: float, tol: float, cap: Optional[int] = None) -> int:
    """Smallest p0 >= 0 with ratio^(p0+1) * Phi(ratio, 1, p0+1) <= tol, or cap + 1.

    `ratio` is q = max_j R/rho_j; the left side is the kernel tail
    sum_{k>p0} q^k/k.  The terms are added smallest first (the accurate
    order for a decreasing series) from the K where
    q^(K+1)/((K+1)(1-q)) < eps*tol down; the first running sum above tol is
    tail(k-1), so p0 = k.  Blocks of TAIL_BLOCK terms are sequential cumsums
    from the running tail, so p0 does not depend on the block size.  Work
    O(K - p0), memory O(TAIL_BLOCK).  K - p0 grows like 1/(1-q), so a `cap`
    below K is checked first, in closed form: if kernel_tail(q, cap) tops tol
    by more than its rounding 8 eps |log(1-q)|, p0 > cap and cap + 1 is
    returned (the caller's cap binds whatever p0 is); else the walk starts at
    the cap from that tail when the rounding is at most the eps*tol*(K - cap)
    the walk would pile up above the cap.  Work is then O(min(K, cap)).
    """
    if not 0.0 < ratio < 1.0:
        raise ConstraintViolationError(1.0 - ratio)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    # q^(K+1) <= eps * tol * (1-q) bounds the left-out tail by eps * tol.
    log_left = math.log(MACHINE_EPS) + math.log(tol) + math.log1p(-ratio)
    k = max(1, math.ceil(log_left / math.log(ratio)) - 1)
    # p0 <= K, so only a cap below K can bind; then the cap terms are the cheaper sum
    tail = 0.0
    if cap is not None and cap < k:
        cap_tail = kernel_tail(ratio, cap)
        rounding = 8.0 * MACHINE_EPS * -math.log1p(-ratio)
        if cap_tail > tol + rounding:
            return int(cap) + 1
        if rounding <= MACHINE_EPS * tol * (k - cap):
            k, tail = int(cap), cap_tail
    while k >= 1:
        ks = np.arange(k, max(k - TAIL_BLOCK, 0), -1, dtype=float)
        sums = np.cumsum(np.concatenate(([tail], ratio**ks / ks)))[1:]
        above = np.flatnonzero(sums > tol)
        if above.size:
            return int(ks[above[0]])
        tail = float(sums[-1])
        k -= TAIL_BLOCK
    return 0


def expansion_degree(p0: int, n_basis: int) -> int:
    """Final truncation degree max(p0, ceil((n_basis - 1) / 2)).

    Guarantees 2p+1 >= n_basis, so the monomial feature space is at least as
    large as the kernel basis.
    """
    if p0 < 0:
        raise ValueError("p0 must be nonnegative")
    if n_basis < 1:
        raise ValueError("n_basis must be >= 1")
    return max(int(p0), n_basis // 2)    # ceil((n-1)/2) == n//2


def _powers(z: np.ndarray, p: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Columns z^1 .. z^p from a running power, shape (len(z), p), into `out` if given."""
    out = np.empty((z.shape[0], p), dtype=complex) if out is None else out
    if p == 0:
        return out
    out[:, 0] = z
    for m in range(1, p):
        out[:, m] = out[:, m - 1] * z    # multiply(out=) into a strided column rounds otherwise
    return out


def real_monomials(z: np.ndarray, degree: int, out=None) -> np.ndarray:
    """[1, Re z, Im z, ..., Re z^p, Im z^p]: 1, then the float view of _powers, shape (n, 2p+1)."""
    out = np.empty((z.shape[0], 2 * degree + 1)) if out is None else out
    out[:, 0] = 1.0
    _powers(z, degree, out=out[:, 1:].view(complex))
    return out


@dataclass(frozen=True)
class ExpansionSetup:
    """Truncated expansion of all source kernels in scaled real harmonic monomials.

    `matrix` is real, one row per source, with columns matching real_monomials
    [1, Re z, Im z, ..., Re z^p, Im z^p]: column 0 holds log|y_j| and columns
    2m-1, 2m hold -Re u_j^m / m and Im u_j^m / m, u_j = R/y_j.
    """

    scale_radius: float
    base_order: Optional[int]    # tolerance-driven order before the degree floor
    degree: int
    matrix: np.ndarray           # (N, 2*degree + 1) float64
    sources: PointSet

    @property
    def count(self) -> int:
        return self.sources.count

    def kernel_values(self, radii, angles) -> np.ndarray:
        """Expanded log-kernel values at polar points, shape (N, n_points), real."""
        r = np.atleast_1d(np.asarray(radii, dtype=float))
        th = np.atleast_1d(np.asarray(angles, dtype=float))
        feats = real_monomials((r / self.scale_radius) * np.exp(1j * th), self.degree)
        return self.matrix @ feats.T


def expansion_matrix(
    sources: PointSet,
    scale_radius: float,
    degree: int,
    base_order: Optional[int] = None,
) -> ExpansionSetup:
    """Build the real (N, 2*degree+1) expansion matrix for the given sources.

    Raises
    ------
    ConfigError
        `scale_radius` is not finite and positive.
    ConstraintViolationError
        Some source lies inside the origin-centered disk of radius
        `scale_radius`, carrying the (negative) margin.
    """
    margin = 1.0 - series_ratio(sources, scale_radius)
    if margin <= 0.0:
        raise ConstraintViolationError(margin)
    z = scaled_coordinate(sources.points, scale_radius)
    u = 1.0 / z    # R / y_j
    n = sources.count
    if 2 * degree + 1 < n:
        raise ValueError(f"degree {degree} too small for {n} sources (need 2p+1 >= N)")
    mat = real_monomials(u, degree)
    mat[:, 0] = np.log(scale_radius * np.abs(z))
    block = mat[:, 1:].view(complex)    # u^m, then conj(u^m) / (-m), all in place
    np.conjugate(block, out=block)
    block /= -np.arange(1, degree + 1.0)
    return ExpansionSetup(
        scale_radius=float(scale_radius),
        base_order=base_order,
        degree=int(degree),
        matrix=mat,
        sources=sources,
    )


def setup_expansion(
    sources: PointSet,
    scale_radius: float,
    n_basis: int,
    tol: float = MACHINE_EPS,
    max_degree: Optional[int] = None,
    budget: Optional[Tuple[int, int, int]] = None,
) -> ExpansionSetup:
    """Choose the truncation degree p by the one degree rule and build the matrix.

    - p0 = truncation_order(q, tol), q = series_ratio: the smallest order whose
      kernel tail, bounded by q^(p0+1) * Phi(q, 1, p0+1), is at most tol.
    - The width floor lifts p to max(p0, n_basis // 2): svd passes N, qr N + 1.
    - The resolution cap `max_degree` clamps p; svd passes (M - 1) // 2 so that
      M collocation points resolve the frame.  The tail left out,
      kernel_tail(q, p), can be far above tol (0.36 for q = 1/1.03, p = 24).
    - The budget refuses: `budget` = (rows, itemsize, max_bytes) bounds the
      caller's rows x (2p+1) feature matrix; by default it charges 16 bytes
      to each N x (2p+1) expansion entry in FEATURE_BYTES_MAX.  p is also at most
      MAX_DEGREE, which bounds the O(p) order search and power loop (about 4 s
      at N = 1).  SizeLimitError is raised before any matrix is formed, and
      the order search stops at the bound, so a ratio near 1 ends quickly.
    """
    rows, itemsize, max_bytes = budget or (sources.count, 16, FEATURE_BYTES_MAX)
    limit = min((max_bytes // (rows * itemsize) - 1) // 2, MAX_DEGREE)
    clamp = math.inf if max_degree is None else max_degree
    p0 = truncation_order(series_ratio(sources, scale_radius), tol, min(clamp, limit))
    p = int(min(expansion_degree(p0, n_basis), clamp))
    if 2 * p + 1 < n_basis:
        raise ValueError(f"degree cap {max_degree} leaves fewer than {n_basis} features")
    if p > limit:    # the order search stopped at limit + 1, so p is only a lower bound
        gib = max_bytes / 2**30
        why = f"needs more than {gib:g} GiB, over the {gib:g} GiB budget"
        why = why if limit < MAX_DEGREE else f"is over the degree bound {MAX_DEGREE}"
        raise SizeLimitError(f"{rows} x (2p+1) feature matrix with p > {limit} {why}")
    return expansion_matrix(sources, scale_radius, p, base_order=p0)
