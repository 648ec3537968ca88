"""Vandermonde-with-Arnoldi orthogonalization and Hessenberg evaluation.

Orthonormalizes the monomial sequence 1, x, x^2, ... on a fixed node set
without ever forming the (exponentially ill-conditioned) Vandermonde matrix.
Starting from q0 = ones/sqrt(M), each step multiplies by diag(nodes) and
orthogonalizes against all previous columns at once: one block classical
Gram-Schmidt pass, and a second only when the first cancels (the DGKS test
of Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976), producing
orthonormal columns Q and a Hessenberg H with

    diag(nodes) @ Q[:, :-1] = Q @ H.

The upper-triangular coordinates R of the monomials in the Q basis follow
from the same recurrence (column k+1 of the Vandermonde matrix is
diag(nodes) times column k), so R never touches the Vandermonde matrix
either.  The basis extends to new points a block at a time: evaluate_basis
replays the Hessenberg recurrence and writes the block's real frame [q_0,
sqrt2 Re q_k, sqrt2 Im q_k], on which coupling_matrix gives the real
monomials' coordinates; this module alone knows that layout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNodesError

# Points per block in solvers.basis_values; recurrence steps per history product.
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

    qt = np.empty((n + 1, m), dtype=complex)    # Q's columns as rows: each q_k contiguous
    h = np.zeros((n + 1, n), dtype=complex)
    v = np.empty(m, dtype=complex)
    qt[0] = 1.0 / np.sqrt(m)
    for k in range(n):
        qk = qt[: k + 1]
        np.multiply(x, qt[k], out=v)
        before = float(np.linalg.norm(v))
        # classical Gram-Schmidt; qk^H v as conj(qk @ conj(v)), so qk is never copied
        coeffs = np.conj(qk @ np.conj(v))
        v -= coeffs @ qk
        norm = float(np.linalg.norm(v))
        if norm < before / np.sqrt(2.0):    # cancellation (DGKS): orthogonalize again
            c = np.conj(qk @ np.conj(v))
            v -= c @ qk
            coeffs += c
            norm = float(np.linalg.norm(v))
        if norm == 0.0 or norm < 1e-14 * scale:
            raise DegenerateNodesError(k)
        h[: k + 1, k] = coeffs
        h[k + 1, k] = norm
        np.divide(v, norm, out=qt[k + 1])

    r = np.zeros((n + 1, n + 1), dtype=complex)
    r[0, 0] = np.sqrt(m)
    for k in range(n):
        r[: k + 2, k + 1] = h[: k + 2, : k + 1] @ r[: k + 1, k]
    return ArnoldiFactor(q=qt.T, h=h, r=r, degree=n)


def replay_scratch(degree: int, width: int) -> np.ndarray:
    """evaluate_basis scratch for `width` points: q_0..q_p, a degree block's history, a product."""
    return np.empty((degree + 2 + min(DEGREE_BLOCK, degree), width), dtype=complex)


def evaluate_basis(factor, new_nodes, scratch, frame) -> np.ndarray:
    """Real Arnoldi frame at a block of b new points, written into `frame`.

    Replays the Hessenberg recurrence from the constant 1/sqrt(M) used at
    construction, so the original nodes give back the factor's own Q.  It
    reads only `factor.h`, `factor.degree` and `factor.node_count` (M): an
    ArnoldiFactor, or a record that keeps just these, as SvdBasis does.  The
    real frame [q_0, sqrt2 Re q_1, sqrt2 Im q_1, ..., sqrt2 Im q_p] is
    written basis-major into `frame` (2p+1, b), whose transpose, points
    first, is returned: BLAS contracts it with no copy, and the write is
    about 3x faster than a row per point (p = 224, 1024 points, one Xeon
    core).  `scratch` is replay_scratch(p, w), w >= b, so each q_k is a
    contiguous row; in each block of DEGREE_BLOCK steps the history
    h[:K+1, K:K+b] is applied to the known rows as one matrix product and
    only the in-block recurrence runs step by step, its products written
    into the last row.  The subdiagonal must be real, as the factor makes
    it: numpy divides by s + 0i as a multiply by 1/s, so multiplying the
    float view by 1/s gives the same bits.  Callers allocate both buffers
    once for all their blocks: a large temporary made fresh per block can
    be a fresh mmap, page-faulted anew.
    """
    x = np.asarray(new_nodes, dtype=complex).ravel()
    n = factor.degree
    h = factor.h
    sub = np.diagonal(h, -1)
    zero = np.flatnonzero(sub == 0.0)
    if zero.size:
        raise ValueError(f"zero Hessenberg subdiagonal at step {zero[0]}")
    if np.any(sub.imag):
        raise ValueError("Hessenberg subdiagonal must be real")
    inv = 1.0 / sub.real
    width = x.shape[0]
    q = scratch[: n + 1, :width]
    hist = scratch[n + 1 : -1, :width]
    prod = scratch[-1, :width]
    start = 1.0 / np.sqrt(factor.node_count)
    q[0] = start
    for kb in range(0, n, DEGREE_BLOCK):
        b = min(DEGREE_BLOCK, n - kb)
        known = hist[:b]
        np.matmul(h[: kb + 1, kb : kb + b].T, q[: kb + 1], out=known)
        for k in range(kb, kb + b):
            acc = known[k - kb]
            if k > kb:
                acc += np.matmul(h[kb + 1 : k + 1, k], q[kb + 1 : k + 1], out=prod)
            nxt = q[k + 1]
            np.multiply(x, q[k], out=nxt)
            nxt -= acc
            np.multiply(nxt.view(float), inv[k], out=nxt.view(float))
    frame[0] = start
    # one pass over the float view: (Re q_k, Im q_k) pairs to rows 2k-1, 2k
    pairs = q[1:].view(float).reshape(n, width, 2).transpose(0, 2, 1)
    np.multiply(pairs, np.sqrt(2.0), out=frame[1:].reshape(n, 2, width))
    return frame.T


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
