"""Vandermonde-with-Arnoldi orthogonalization and Hessenberg evaluation.

Orthonormalizes the monomial sequence 1, x, x^2, ... on a fixed node set
without ever forming the (exponentially ill-conditioned) Vandermonde matrix.
Starting from q0 = ones/sqrt(M), each step multiplies by diag(nodes) and
orthogonalizes against all previous columns at once (block classical
Gram-Schmidt, run twice), producing orthonormal columns Q and a Hessenberg H
with

    diag(nodes) @ Q[:, :-1] = Q @ H.

The upper-triangular coordinates R of the monomials in the Q basis follow
from the same recurrence (column k+1 of the Vandermonde matrix is
diag(nodes) times column k), so R never touches the Vandermonde matrix
either.  The basis extends to arbitrary new points by replaying the
Hessenberg recurrence, one cache-sized block of points at a time; each block
is contracted with a coefficient block at once, so evaluating an expansion
in the basis never stores the (n_points, n+1) basis matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNodesError

# Points per block and recurrence steps per history product in evaluate_basis.
CHUNK = 1024
DEGREE_BLOCK = 32


@dataclass(frozen=True)
class ArnoldiFactor:
    """Arnoldi data for one node set: Q (M, n+1), H (n+1, n), R (n+1, n+1)."""

    q: np.ndarray
    h: np.ndarray
    r: np.ndarray
    degree: int

    @property
    def node_count(self) -> int:
        """M, the number of nodes; the replay starts from the constant 1/sqrt(M)."""
        return self.q.shape[0]


def arnoldi_vandermonde(nodes, degree: int) -> ArnoldiFactor:
    """Orthonormalize monomials of the given degree on the nodes.

    Parameters
    ----------
    nodes : complex array, shape (M,)
    degree : int
        Highest monomial power n; requires n + 1 <= M.

    Raises
    ------
    ValueError
        degree + 1 > node count, or non-finite nodes.
    DegenerateNodesError
        Breakdown: the next direction has norm below 1e-14 * max|nodes|,
        meaning the nodes cannot support the requested degree.
    """
    x = np.asarray(nodes, dtype=complex).ravel()
    m = x.shape[0]
    n = int(degree)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n + 1 > m:
        raise ValueError(f"degree {n} needs at least {n + 1} nodes, got {m}")
    if not np.all(np.isfinite(x)):
        raise ValueError("nodes must be finite")
    scale = float(np.max(np.abs(x))) if m else 0.0

    q = np.empty((m, n + 1), dtype=complex)
    h = np.zeros((n + 1, n), dtype=complex)
    q[:, 0] = 1.0 / np.sqrt(m)
    for k in range(n):
        v = x * q[:, k]
        qk = q[:, : k + 1]
        coeffs = np.zeros(k + 1, dtype=complex)
        for _ in range(2):    # classical Gram-Schmidt, run twice (CGS2)
            c = np.conj(np.conj(v) @ qk)    # qk^H v without copying qk^H
            v -= qk @ c
            coeffs += c
        norm = float(np.linalg.norm(v))
        if norm == 0.0 or norm < 1e-14 * scale:
            raise DegenerateNodesError(k)
        h[: k + 1, k] = coeffs
        h[k + 1, k] = norm
        q[:, k + 1] = v / norm

    r = np.zeros((n + 1, n + 1), dtype=complex)
    r[0, 0] = np.sqrt(m)
    for k in range(n):
        r[: k + 2, k + 1] = h[: k + 2, : k + 1] @ r[: k + 1, k]
    return ArnoldiFactor(q=q, h=h, r=r, degree=n)


def evaluate_basis(factor, new_nodes, coef) -> np.ndarray:
    """Orthonormal polynomial basis at new points times a coefficient block.

    Returns Q(new_nodes) @ coef for coef of shape (degree + 1,) or
    (degree + 1, k); the (n_points, degree + 1) basis itself is never stored
    (pass the identity to get it).  Q is replayed from the Hessenberg
    recurrence, starting from the constant 1/sqrt(M) used at construction,
    so the original nodes give back the factor's own Q.  The replay reads
    only `factor.h`, `factor.degree` and `factor.node_count` (M): an
    ArnoldiFactor, or a record that keeps just these, as SvdBasis does.

    The points go CHUNK at a time through one (degree + 1, CHUNK) buffer,
    basis-major, so each q_k is a contiguous row.  In each block of
    DEGREE_BLOCK steps the history h[:K+1, K:K+b] is applied to the rows
    already known as one matrix product; only the in-block recurrence runs
    step by step.  Each point block is contracted with coef once complete.
    The buffers are allocated once per call, not once per block: a large
    temporary made fresh per block can be a fresh mmap, page-faulted anew.
    Values are reproducible for a given point set, but not bitwise
    independent of the points evaluated beside them: BLAS may sum a column
    it handles alone in another order (OpenBLAS 0.3.31: up to 5.2e-18).
    """
    x = np.asarray(new_nodes, dtype=complex).ravel()
    coef = np.asarray(coef)
    n = factor.degree
    h = factor.h
    sub = np.diagonal(h, -1)
    zero = np.flatnonzero(sub == 0.0)
    if zero.size:
        raise ValueError(f"zero Hessenberg subdiagonal at step {zero[0]}")
    if coef.shape[0] != n + 1:
        raise ValueError(f"coefficient block has {coef.shape[0]} rows, basis has {n + 1}")
    out = np.empty(x.shape + coef.shape[1:], dtype=np.result_type(coef, complex))
    width = min(CHUNK, x.shape[0])
    buf = np.empty((n + 1, width), dtype=complex)
    hist = np.empty((min(DEGREE_BLOCK, n), width), dtype=complex)
    for lo in range(0, x.shape[0], CHUNK):
        xb = x[lo : lo + CHUNK]
        q = buf[:, : xb.shape[0]]
        q[0] = 1.0 / np.sqrt(factor.node_count)
        for kb in range(0, n, DEGREE_BLOCK):
            b = min(DEGREE_BLOCK, n - kb)
            known = hist[:b, : xb.shape[0]]
            np.matmul(h[: kb + 1, kb : kb + b].T, q[: kb + 1], out=known)
            for k in range(kb, kb + b):
                acc = known[k - kb]
                if k > kb:
                    acc += h[kb + 1 : k + 1, k] @ q[kb + 1 : k + 1]
                nxt = q[k + 1]
                np.multiply(xb, q[k], out=nxt)
                nxt -= acc
                nxt /= sub[k]
        np.matmul(q.T, coef, out=out[lo : lo + xb.shape[0]])
    return out


def coupling_matrix(z_factor: ArnoldiFactor, w_factor: ArnoldiFactor) -> np.ndarray:
    """Real coordinates C of the real monomials on the real Arnoldi frame.

    For factors of degree p on nodes z and w = conj(z), the real monomials
    [1, Re z, Im z, ..., Re z^p, Im z^p] equal frame @ C.T, the real frame
    being [q_0, sqrt2 Re q_1, sqrt2 Im q_1, ..., sqrt2 Re q_p, sqrt2 Im q_p]
    of the z factor; C is real and (2p+1, 2p+1).  With q_k = a_k + i b_k and
    the w factor's q_k = conj(q_k), z^m + w^m = sum_k (a_k S_km + i b_k D_km)
    for S = R_z + R_w and D = R_z - R_w, so Re z^m carries Re S_km / 2 on a_k
    and -Im D_km / 2 on b_k, and Im z^m carries Im D_km / 2 and Re S_km / 2.
    The parts of S and D dropped are roundoff (exactly 0 when R_w = conj(R_z),
    as the two runs give bitwise).  C is block upper triangular with
    nonsingular 2 x 2 diagonal blocks, so it is invertible.
    """
    p = z_factor.degree
    if w_factor.degree != p:
        raise ValueError("z and w factors must have equal degree")
    re = 0.5 * (z_factor.r + w_factor.r).real    # Re S / 2 = Re R_z
    im = 0.5 * (z_factor.r - w_factor.r).imag    # Im D / 2 = Im R_z
    re[1:] /= np.sqrt(2.0)    # frame columns k >= 1 carry sqrt2
    im[1:] /= np.sqrt(2.0)
    c = np.zeros((2 * p + 1, 2 * p + 1))
    c[0, 0] = re[0, 0]
    c[1::2, 0], c[2::2, 0] = re[0, 1:], im[0, 1:]
    c[1::2, 1::2] = c[2::2, 2::2] = re[1:, 1:].T
    c[1::2, 2::2] = -im[1:, 1:].T
    c[2::2, 1::2] = im[1:, 1:].T
    return c
