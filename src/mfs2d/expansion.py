"""Log-kernel expansion in powers of one complex coordinate.

A point x = (x, y) is taken as z = (x + iy)/R about the origin, R the
maximum boundary radius, and each exterior source y_j, read as a complex
number, as u_j = R/y_j.  For |z| <= 1 < 1/|u_j| the log kernel expands as

    log|x - y_j| = log|y_j| - Re sum_{m>=1} (z u_j)^m / m
                 = log|y_j| - sum_{m>=1} (u_j^m z^m + conj(u_j)^m w^m) / (2m),  w = conj(z).

The series converges geometrically with ratio q = max_j |u_j| < 1; the
truncation order is chosen so the tail, bounded by q^{p+1} * Phi(q, 1, p+1)
with Phi the Hurwitz-Lerch transcendent at s=1, drops below a tolerance.
The expansion matrix maps the monomial feature vector

    F(z) = [1, z, ..., z^p, w, ..., w^p]

to the vector of kernel values for all sources.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstraintViolationError, SingularityError
from .geometry import PointSet, scaled_coordinate, series_ratio

MACHINE_EPS = float(np.finfo(np.float64).eps)


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


def harmonic_monomials(radii, angles, scale_radius: float, degree: int) -> np.ndarray:
    """Feature matrix [1, z..z^p, w..w^p] at polar points, z = (r/R) e^{i theta}, w = conj(z).

    Returns shape (n_points, 2*degree + 1).
    """
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    th = np.atleast_1d(np.asarray(angles, dtype=float))
    z = (r / scale_radius) * np.exp(1j * th)
    zp = _powers(z, degree)
    out = np.empty((r.shape[0], 2 * degree + 1), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1 : degree + 1] = zp
    out[:, degree + 1 :] = np.conj(zp)
    return out


@dataclass(frozen=True)
class ExpansionSetup:
    """Truncated expansion of all source kernels in scaled harmonic monomials.

    `matrix` has one row per source and columns matching harmonic_monomials:
    column 0 holds log|y_j|, the z-power block holds -u_j^m / (2m) with
    u_j = R/y_j, and the w-power block its conjugate.
    """

    scale_radius: float
    base_order: Optional[int]    # tolerance-driven order before the degree floor
    degree: int
    matrix: np.ndarray           # (N, 2*degree + 1) complex
    sources: PointSet

    @property
    def count(self) -> int:
        return self.sources.count

    def kernel_values(self, radii, angles) -> np.ndarray:
        """Expanded log-kernel values, shape (N, n_points)."""
        feats = harmonic_monomials(radii, angles, self.scale_radius, self.degree)
        return self.matrix @ feats.T


def expansion_matrix(
    sources: PointSet,
    scale_radius: float,
    degree: int,
    base_order: Optional[int] = None,
) -> ExpansionSetup:
    """Build the (N, 2*degree+1) expansion matrix for the given sources.

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
    zblock = _powers(u, degree) / (-2.0 * np.arange(1, degree + 1))
    mat = np.empty((n, 2 * degree + 1), dtype=complex)
    mat[:, 0] = np.log(scale_radius * np.abs(z))
    mat[:, 1 : degree + 1] = zblock
    mat[:, degree + 1 :] = np.conj(zblock)
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
) -> ExpansionSetup:
    """Choose the truncation degree for the given tolerance and build the matrix.

    `max_degree` caps the degree: M collocation points can resolve at most M
    stacked frame functions, so solvers pass (M - 1) // 2 to keep
    2*degree + 1 <= M.  When the tolerance-driven order exceeds the cap, the
    kernel tail left out, bounded by ratio^(p+1) * Phi(ratio, 1, p+1), can
    be far above tol (0.36 for ratio 1/1.03 and p = 24).
    """
    p0 = truncation_order(series_ratio(sources, scale_radius), tol, max_degree)
    p = expansion_degree(p0, n_basis)
    if max_degree is not None and p > max_degree:
        p = int(max_degree)
        if 2 * p + 1 < n_basis:
            raise ValueError(
                f"degree cap {max_degree} leaves fewer than {n_basis} features"
            )
    return expansion_matrix(sources, scale_radius, p, base_order=p0)
