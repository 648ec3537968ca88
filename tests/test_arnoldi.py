import tracemalloc

import numpy as np
import pytest

from mfs2d import arnoldi
from mfs2d import (
    DegenerateNodesError,
    SvdBasis,
    arnoldi_vandermonde,
    build_svd_basis,
    coupling_matrix,
    make_curve,
    max_boundary_radius,
    sample_collocation,
    sample_sources,
    setup_expansion,
)
from mfs2d.geometry import scaled_coordinate
from mfs2d.solvers import basis_values


def vander(nodes, degree):
    return np.column_stack([nodes**k for k in range(degree + 1)])


def householder_qr_positive(v):
    """Independent orthogonalization oracle: Householder QR, diagonal made positive."""
    q, r = np.linalg.qr(v)
    phase = r.diagonal() / np.abs(r.diagonal())
    return q * np.conj(phase)[None, :], phase[:, None] * r


def star_nodes(m=128):
    domain = make_curve("star_kite")
    colloc = sample_collocation(domain, m)
    return (colloc.radii / max_boundary_radius(domain)) * np.exp(1j * colloc.angles)


class TestArnoldiVandermonde:
    def test_uniform_circle_is_pure_shift(self):
        # 16 unit-circle nodes keep monomials orthogonal, so H is a shift
        nodes = np.exp(2j * np.pi * np.arange(16) / 16)
        fac = arnoldi_vandermonde(nodes, 7)
        assert np.max(np.abs(np.diagonal(fac.h))) <= 1e-13
        sub = np.abs(fac.h[np.arange(1, 8), np.arange(7)])
        assert np.allclose(sub, 1.0, atol=1e-13)

    def test_matches_householder_oracle_on_circle(self):
        nodes = np.exp(2j * np.pi * np.arange(16) / 16)
        fac = arnoldi_vandermonde(nodes, 7)
        q_o, r_o = householder_qr_positive(vander(nodes, 7))
        assert np.allclose(fac.q, q_o, atol=1e-12)
        assert np.allclose(fac.r, r_o, atol=1e-12)

    def test_degree_zero(self):
        nodes = np.array([0.3 + 0.1j, -0.2j, 0.9])
        fac = arnoldi_vandermonde(nodes, 0)
        assert np.allclose(fac.q[:, 0], 1 / np.sqrt(3))
        assert fac.h.shape == (1, 0)
        assert np.allclose(fac.r, [[np.sqrt(3)]])

    def test_orthonormal_at_half_the_node_count(self):
        # the svd backend's largest degree: p = (M - 1) // 2
        fac = arnoldi_vandermonde(star_nodes(1000), 499)
        gram = fac.q.conj().T @ fac.q
        assert np.linalg.norm(gram - np.eye(500), 2) <= 1e-14

    def test_reproduces_vandermonde(self):
        rng = np.random.default_rng(3)
        nodes = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
        fac = arnoldi_vandermonde(nodes, 10)
        v = vander(nodes, 10)
        assert np.linalg.norm(v - fac.q @ fac.r) <= 1e-12 * np.linalg.norm(v)

    def test_orthonormal_columns(self):
        fac = arnoldi_vandermonde(star_nodes(), 30)
        gram = fac.q.conj().T @ fac.q
        assert np.max(np.abs(gram - np.eye(31))) <= 1e-12

    def test_arnoldi_relation(self):
        nodes = star_nodes()
        fac = arnoldi_vandermonde(nodes, 30)
        lhs = nodes[:, None] * fac.q[:, :-1]
        resid = np.linalg.norm(lhs - fac.q @ fac.h)
        assert resid <= 1e-12 * np.max(np.abs(nodes)) * np.linalg.norm(fac.q)

    def test_r_strictly_triangular(self):
        fac = arnoldi_vandermonde(star_nodes(), 12)
        assert np.all(fac.r[np.tril_indices(13, k=-1)] == 0.0)

    def test_span_preservation(self):
        nodes = star_nodes()
        fac = arnoldi_vandermonde(nodes, 25)
        v = vander(nodes, 25)
        resid = v - fac.q @ (fac.q.conj().T @ v)
        col_resid = np.linalg.norm(resid, axis=0) / np.linalg.norm(v, axis=0)
        assert np.max(col_resid) <= 1e-12

    def test_rank_error(self):
        with pytest.raises(ValueError):
            arnoldi_vandermonde(np.ones(4, dtype=complex), 4)

    def test_breakdown_on_repeated_nodes(self):
        with pytest.raises(DegenerateNodesError) as err:
            arnoldi_vandermonde(np.full(8, 0.5 + 0.5j), 3)
        assert err.value.step == 0

    def test_nonfinite_nodes(self):
        with pytest.raises(ValueError):
            arnoldi_vandermonde(np.array([1.0, np.inf]), 1)

    def test_all_zero_nodes_break_down(self):
        with pytest.raises(DegenerateNodesError):
            arnoldi_vandermonde(np.zeros(5, dtype=complex), 1)

    def test_no_per_step_copy_of_q(self):
        # M=1000, p=250: Q, H and R are 6.03 MB; the work vectors are a few
        # length-M arrays, while one copy of the block q_0..q_k per step (as
        # qk.conj() makes) would add up to 4 MB more
        m, p = 1000, 250
        t = 2 * np.pi * np.arange(m) / m
        nodes = 0.9 * (1 + 0.2 * np.cos(3 * t)) * np.exp(1j * t)
        tracemalloc.start()
        try:
            fac = arnoldi_vandermonde(nodes, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fac.q.nbytes + fac.h.nbytes + fac.r.nbytes + 8 * 16 * m


class Passes:
    """Stands in for numpy in arnoldi: counts np.conj calls, two per Gram-Schmidt pass."""

    def __init__(self):
        self.conj_calls = 0

    def conj(self, a):
        self.conj_calls += 1
        return np.conj(a)

    def __getattr__(self, name):
        return getattr(np, name)


def cgs2_hessenberg(nodes, degree):
    """H of the Arnoldi process with classical Gram-Schmidt always run twice."""
    m = nodes.shape[0]
    q = np.empty((m, degree + 1), dtype=complex)
    h = np.zeros((degree + 1, degree), dtype=complex)
    q[:, 0] = 1.0 / np.sqrt(m)
    for k in range(degree):
        v = nodes * q[:, k]
        for _ in range(2):
            c = q[:, : k + 1].conj().T @ v
            v = v - q[:, : k + 1] @ c
            h[: k + 1, k] += c
        h[k + 1, k] = np.linalg.norm(v)
        q[:, k + 1] = v / h[k + 1, k]
    return h


class TestSecondPass:
    """The second Gram-Schmidt pass runs only when the first cancels (DGKS, 1/sqrt2)."""

    @pytest.mark.parametrize(
        "nodes, second_passes",
        [
            pytest.param(np.exp(1j * np.linspace(-0.3, 0.3, 200)), 30, id="arc"),
            pytest.param(np.linspace(-1.0, 1.0, 200) + 0j, 29, id="interval"),
            pytest.param(np.exp(2j * np.pi * np.arange(200) / 200), 0, id="circle"),
        ],
    )
    def test_second_pass_only_on_cancellation(self, monkeypatch, nodes, second_passes):
        counter = Passes()
        monkeypatch.setattr(arnoldi, "np", counter)
        fac = arnoldi_vandermonde(nodes, 30)
        monkeypatch.undo()
        assert counter.conj_calls // 2 - 30 == second_passes
        # the criterion itself, read off the factor: ||(I - Q Q^H) x q_k|| < ||x q_k|| / sqrt2
        v = nodes[:, None] * fac.q[:, :-1]
        left = np.array(
            [np.linalg.norm(v[:, k] - fac.q[:, : k + 1] @ (fac.q[:, : k + 1].conj().T @ v[:, k]))
             for k in range(30)]
        )
        assert np.sum(left < np.linalg.norm(v, axis=0) / np.sqrt(2.0)) == second_passes
        gram = fac.q.conj().T @ fac.q
        assert np.max(np.abs(gram - np.eye(31))) <= 1e-14
        resid = np.linalg.norm(v - fac.q @ fac.h)
        assert resid <= 1e-12 * np.max(np.abs(nodes)) * np.linalg.norm(fac.q)
        assert np.max(np.abs(fac.h - cgs2_hessenberg(nodes, 30))) <= 1e-12


def frame_basis(fac, coords=None):
    """An SvdBasis on the factor's Hessenberg matrix with the given coordinates (default: identity)."""
    p = fac.degree
    coords = np.eye(2 * p + 1) if coords is None else coords
    return SvdBasis(
        basis_coords=coords,
        h=fac.h,
        node_count=fac.node_count,
        scale_radius=1.0,
        count=coords.shape[0],
        degree=p,
    )


def frame(fac, nodes, coef=None, coords=None):
    """The replayed real frame at complex nodes (times coords.T @ coef), through basis_values."""
    points = np.column_stack([nodes.real, nodes.imag])
    return basis_values(frame_basis(fac, coords), points, coef)


def real_frame(q):
    """[q_0, sqrt2 Re q_1, sqrt2 Im q_1, ..., sqrt2 Re q_p, sqrt2 Im q_p] of a complex Q."""
    out = np.empty((q.shape[0], 2 * q.shape[1] - 1))
    out[:, 0] = q[:, 0].real
    out[:, 1::2] = np.sqrt(2.0) * q[:, 1:].real
    out[:, 2::2] = np.sqrt(2.0) * q[:, 1:].imag
    return out


def pointwise_frame(fac, nodes):
    """Each node's own recurrence, one step at a time, vectorized over the nodes."""
    q = np.empty((nodes.shape[0], fac.degree + 1), dtype=complex)
    q[:, 0] = 1.0 / np.sqrt(fac.node_count)
    for k in range(fac.degree):
        step = nodes * q[:, k] - q[:, : k + 1] @ fac.h[: k + 1, k]
        q[:, k + 1] = step / fac.h[k + 1, k]
    return real_frame(q)


class TestEvaluateBasis:
    """The replay, through basis_values on an SvdBasis whose coordinates are the identity."""

    def test_reproduces_q_at_original_nodes(self):
        nodes = star_nodes()
        fac = arnoldi_vandermonde(nodes, 20)
        out = frame(fac, nodes)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - real_frame(fac.q))) <= 1e-12

    def test_single_node_matches_row(self):
        nodes = star_nodes()
        fac = arnoldi_vandermonde(nodes, 15)
        out = frame(fac, nodes[:1])
        assert np.allclose(out[0], real_frame(fac.q)[0], atol=1e-12)

    @pytest.mark.parametrize(
        "count, degree",
        [
            pytest.param(count, degree, id=f"{count}" if degree == 12 else f"{count}-deg{degree}")
            # degree 69 spans three degree blocks (32 + 32 + 5 steps)
            for degree in (12, 2 * arnoldi.DEGREE_BLOCK + 5)
            for count in (0, 1, arnoldi.CHUNK - 1, arnoldi.CHUNK + 1, 10001)
        ],
    )
    def test_blocked_replay_matches_pointwise(self, count, degree):
        fac = arnoldi_vandermonde(star_nodes(), degree)
        rng = np.random.default_rng(count)
        if degree == 12:    # the annulus 0.2 <= |z| <= 1
            new = rng.uniform(0.2, 1.0, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        else:
            # the same radial range inside the scaled star: in the annulus the
            # degree-69 basis reaches 1.5e5, where no summation order keeps 1e-13
            domain = make_curve("star_kite")
            xy = domain.point(rng.uniform(0, 2 * np.pi, count)) / max_boundary_radius(domain)
            new = rng.uniform(0.2, 1.0, count) * (xy[:, 0] + 1j * xy[:, 1])
        out = frame(fac, new)
        assert out.shape == (count, 2 * degree + 1)
        assert np.allclose(out, pointwise_frame(fac, new), rtol=0.0, atol=1e-13)

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        # three point blocks (the last one 7 wide) against one, three degree blocks each
        fac = arnoldi_vandermonde(star_nodes(), 2 * arnoldi.DEGREE_BLOCK + 5)
        count = 2 * arnoldi.CHUNK + 7
        new = 0.9 * np.exp(2j * np.pi * np.arange(count) / count)
        blocked = frame(fac, new)
        monkeypatch.setattr(arnoldi, "CHUNK", new.shape[0])
        assert np.array_equal(blocked, frame(fac, new))

    def test_coefficient_block_is_the_frame_product(self):
        fac = arnoldi_vandermonde(star_nodes(), 2 * arnoldi.DEGREE_BLOCK + 5)
        rng = np.random.default_rng(3)
        new = 0.5 * np.exp(2j * np.pi * rng.uniform(size=2 * arnoldi.CHUNK + 7))
        coords = rng.normal(size=(40, 2 * fac.degree + 1))
        coef = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        full = frame(fac, new) @ coords.T @ coef
        block = frame(fac, new, coef, coords)
        vector = frame(fac, new, coef[:, 1], coords)
        scale = np.max(np.abs(full))
        assert block.shape == (new.shape[0], 3) and vector.shape == new.shape
        assert np.max(np.abs(block - full)) <= 1e-13 * scale
        assert np.max(np.abs(vector - full[:, 1])) <= 1e-13 * scale

    def test_coefficient_rows_must_match_the_degree(self):
        fac = arnoldi_vandermonde(star_nodes(), 6)
        with pytest.raises(ValueError):
            frame(fac, star_nodes(8), np.ones(6))

    def test_zero_subdiagonal_rejected(self):
        import dataclasses

        fac = arnoldi_vandermonde(star_nodes(32), 3)
        broken = dataclasses.replace(fac, h=np.zeros_like(fac.h))
        with pytest.raises(ValueError):
            frame(broken, star_nodes(8))

    def test_complex_subdiagonal_rejected(self):
        # the replay multiplies by 1/Re s, which is division by s only for real s
        import dataclasses

        fac = arnoldi_vandermonde(star_nodes(32), 3)
        h = fac.h.copy()
        h[2, 1] *= 1j
        with pytest.raises(ValueError, match="real"):
            frame(dataclasses.replace(fac, h=h), star_nodes(8))

    def test_polynomial_identity(self):
        # oracle: direct monomial evaluation of the real polynomial with random
        # coefficients; the replayed frame times the coupling's C.T is the real monomials
        rng = np.random.default_rng(11)
        nodes = star_nodes()
        deg = 18
        fac = arnoldi_vandermonde(nodes, deg)
        c = coupling_matrix(fac, arnoldi_vandermonde(np.conj(nodes), deg))
        coeff = rng.normal(size=2 * deg + 1)
        new = 0.8 * np.exp(1j * rng.uniform(0, 2 * np.pi, 60))
        direct = real_vander(new, deg) @ coeff
        via_basis = frame(fac, new, coeff, coords=c)
        assert np.max(np.abs(direct - via_basis)) <= 1e-10 * max(1.0, np.max(np.abs(direct)))


def complex_division_replay(factor, new_nodes, scratch, frame):
    """The replay with complex division by the subdiagonal and a two-pass frame write."""
    x = np.asarray(new_nodes, dtype=complex).ravel()
    n, h = factor.degree, factor.h
    sub = np.diagonal(h, -1)
    q = scratch[: n + 1, : x.shape[0]]
    hist = scratch[n + 1 :, : x.shape[0]]
    q[0] = 1.0 / np.sqrt(factor.node_count)
    for kb in range(0, n, arnoldi.DEGREE_BLOCK):
        b = min(arnoldi.DEGREE_BLOCK, n - kb)
        np.matmul(h[: kb + 1, kb : kb + b].T, q[: kb + 1], out=hist[:b])
        for k in range(kb, kb + b):
            acc = hist[k - kb]
            if k > kb:
                acc += h[kb + 1 : k + 1, k] @ q[kb + 1 : k + 1]
            nxt = q[k + 1]
            np.multiply(x, q[k], out=nxt)
            nxt -= acc
            nxt /= sub[k]
    frame[0] = 1.0 / np.sqrt(factor.node_count)
    np.multiply(q[1:].real, np.sqrt(2.0), out=frame[1::2])
    np.multiply(q[1:].imag, np.sqrt(2.0), out=frame[2::2])
    return frame.T


@pytest.mark.parametrize(
    "domain, source_radius, n",
    [
        pytest.param("star_kite", 2.0, 350, id="star-svd-350"),
        pytest.param("circle", 1.03, 250, id="near-svd-250"),
    ],
)
def test_replay_is_bitwise_the_complex_division_replay(domain, source_radius, n):
    # the perfbench svd bases (M = 2N) at the 10001 boundary points of
    # boundary_error, a CHUNK-point block at a time as basis_values runs it
    curve = make_curve(domain)
    colloc = sample_collocation(curve, 2 * n)
    sources = sample_sources(make_curve("circle", radius=source_radius), n)
    setup = setup_expansion(sources, max_boundary_radius(curve), n, max_degree=(2 * n - 1) // 2)
    basis = build_svd_basis(setup, colloc)
    z = scaled_coordinate(sample_collocation(curve, 10001).points, basis.scale_radius)
    p = basis.degree
    scratch = arnoldi.replay_scratch(p, arnoldi.CHUNK)
    got, want = np.empty((2, 2 * p + 1, arnoldi.CHUNK))
    for lo in range(0, z.shape[0], arnoldi.CHUNK):
        block = z[lo : lo + arnoldi.CHUNK]
        width = block.shape[0]
        arnoldi.evaluate_basis(basis, block, scratch, got[:, :width])
        complex_division_replay(basis, block, scratch, want[:, :width])
        assert got[:, :width].tobytes() == want[:, :width].tobytes()


def real_vander(nodes, degree):
    """[1, Re z, Im z, ..., Re z^p, Im z^p] by direct powers."""
    v = vander(nodes, degree)
    out = np.empty((nodes.shape[0], 2 * degree + 1))
    out[:, 0] = 1.0
    out[:, 1::2], out[:, 2::2] = v[:, 1:].real, v[:, 1:].imag
    return out


class TestCouplingMatrix:
    def test_degree_one_structure(self):
        # 1 = q_0 R_00 and z = q_0 R_01 + q_1 R_11 with R_11 real: on the frame
        # [q_0, sqrt2 Re q_1, sqrt2 Im q_1], Re z and Im z each take one column
        nodes = star_nodes(32)
        zf = arnoldi_vandermonde(nodes, 1)
        wf = arnoldi_vandermonde(np.conj(nodes), 1)
        c = coupling_matrix(zf, wf)
        assert c.shape == (3, 3) and c.dtype == np.float64
        assert c[0, 0] == zf.r[0, 0].real
        assert c[1, 0] == zf.r[0, 1].real and c[2, 0] == zf.r[0, 1].imag
        assert c[1, 1] == c[2, 2] == zf.r[1, 1].real / np.sqrt(2.0)
        assert c[0, 1] == c[0, 2] == 0.0
        assert c[1, 2] == c[2, 1] == 0.0    # Im R_11 = 0

    def test_reconstructs_features(self):
        nodes = star_nodes(64)
        p = 9
        zf = arnoldi_vandermonde(nodes, p)
        wf = arnoldi_vandermonde(np.conj(nodes), p)
        features = real_vander(nodes, p)
        recon = real_frame(zf.q) @ coupling_matrix(zf, wf).T
        assert np.linalg.norm(features - recon) <= 1e-12 * np.linalg.norm(features)

    def test_invertible_at_moderate_degree(self):
        nodes = star_nodes(128)
        p = 20
        zf = arnoldi_vandermonde(nodes, p)
        wf = arnoldi_vandermonde(np.conj(nodes), p)
        s = np.linalg.svd(coupling_matrix(zf, wf), compute_uv=False)
        assert s[-1] > 1e-10 * s[0]

    def test_conjugate_node_relation(self):
        nodes = star_nodes(64)
        zf = arnoldi_vandermonde(nodes, 12)
        wf = arnoldi_vandermonde(np.conj(nodes), 12)
        assert np.max(np.abs(wf.q - np.conj(zf.q))) <= 1e-12
        assert np.max(np.abs(wf.r - np.conj(zf.r))) <= 1e-12 * np.max(np.abs(zf.r))

    def test_degree_mismatch(self):
        nodes = star_nodes(32)
        with pytest.raises(ValueError):
            coupling_matrix(arnoldi_vandermonde(nodes, 3), arnoldi_vandermonde(nodes, 4))
