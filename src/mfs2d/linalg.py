"""Dense linear-algebra contract used by the solvers.

Thin wrappers over numpy's LAPACK bindings pinning down the conventions the
rest of the package relies on: thin SVD with descending singular values,
minimum-norm least squares, and the 2-norm condition number of (possibly
rectangular) matrices with an infinity sentinel for numerically singular
input.  Matrices are dense numpy arrays, row-major.  The arithmetic follows
the input, and every caller in the package is real: the three solvers'
systems and the svd backend's reduced matrix, one real product of the
expansion matrix and the Arnoldi coupling, all take numpy's real LAPACK path.
"""

import numpy as np

from .errors import DegenerateSystemError

_SINGULAR_CUTOFF = 1e-300


def _check_finite(a: np.ndarray, what: str):
    if not np.all(np.isfinite(a)):
        raise DegenerateSystemError(f"{what} contains non-finite entries")


def svd_thin(a):
    """Thin SVD: returns (u, s, vh) with s descending and k = min(m, n) columns."""
    a = np.asarray(a)
    _check_finite(a, "matrix")
    return np.linalg.svd(a, full_matrices=False)


def lstsq(a, b):
    """Minimum-norm least-squares solution of an overdetermined system.

    Requires m >= n; rank-deficient systems get the minimum-norm minimizer
    (SVD-based, singular values below machine-precision cutoff dropped).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"need m >= n, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError("right-hand side length mismatch")
    _check_finite(a, "matrix")
    _check_finite(b, "right-hand side")
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return x


def cond2(a) -> float:
    """2-norm condition number sigma_max / sigma_min of a rectangular matrix.

    Returns inf when sigma_min < 1e-300 * sigma_max.
    """
    a = np.asarray(a)
    _check_finite(a, "matrix")
    if not np.any(a):
        raise DegenerateSystemError("condition number of the zero matrix is undefined")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] < _SINGULAR_CUTOFF * s[0]:
        return float("inf")
    return float(s[0] / s[-1])
