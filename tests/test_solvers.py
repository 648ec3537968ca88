import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from mfs2d import (
    BoundaryData,
    ConfigError,
    ExperimentConfig,
    RankDeficiencyError,
    SingularityError,
    assemble_direct,
    assemble_qr_system,
    assemble_svd_system,
    boundary_error,
    build_qr_basis,
    build_svd_basis,
    evaluate_solution,
    expansion_matrix,
    lstsq,
    make_boundary_data,
    make_curve,
    max_boundary_radius,
    real_monomials,
    run_single,
    sample_collocation,
    sample_sources,
    setup_expansion,
    solve_direct,
    solve_qr,
    solve_svd,
)
from mfs2d import arnoldi, solvers
from mfs2d.arnoldi import arnoldi_vandermonde, coupling_matrix
from mfs2d.bench import build_method_context, emit_basis_samples
from mfs2d.geometry import PointSet, scaled_coordinate


def point_set(coords):
    pts = np.asarray(coords, dtype=float)
    return PointSet(points=pts, params=np.zeros(len(pts)))


def real_frame_map(p):
    """Unitary T (2p+1, 2p+1) with [q_0, sqrt2 Re q_1, sqrt2 Im q_1, ...] = [q_0..q_p, conj q_1..conj q_p] @ T."""
    t = np.zeros((2 * p + 1, 2 * p + 1), dtype=complex)
    t[0, 0] = 1.0
    k = np.arange(1, p + 1)
    r = 1.0 / math.sqrt(2.0)
    t[k, 2 * k - 1] = t[p + k, 2 * k - 1] = r
    t[k, 2 * k], t[p + k, 2 * k] = -1j * r, 1j * r
    return t


def real_feature_map(p):
    """P (2p+1, 2p+1) with [1, Re z, Im z, ...] = [1, z..z^p, w..w^p] @ P.T, w = conj z."""
    f = np.zeros((2 * p + 1, 2 * p + 1), dtype=complex)
    f[0, 0] = 1.0
    m = np.arange(1, p + 1)
    f[2 * m - 1, m] = f[2 * m - 1, p + m] = 0.5
    f[2 * m, m], f[2 * m, p + m] = -0.5j, 0.5j
    return f


def stacked_coupling(z_factor, w_factor):
    """K with [1, z..z^p, w..w^p] = [q_z0..q_zp, q_w1..q_wp] @ K.T (one constant column)."""
    p = z_factor.degree
    k = np.zeros((2 * p + 1, 2 * p + 1), dtype=complex)
    k[: p + 1, : p + 1] = z_factor.r.T
    k[p + 1 :, 0] = w_factor.r[0, 1:]
    k[p + 1 :, p + 1 :] = w_factor.r[1:, 1:].T
    return k


def frame_basis(basis):
    """The svd basis with identity coordinates: its basis_values are the real frame itself."""
    width = 2 * basis.degree + 1
    return dataclasses.replace(basis, basis_coords=np.eye(width), count=width)


def pointwise_q(factor, nodes):
    """Q of a factor replayed at new nodes, one recurrence step at a time (no blocking)."""
    q = np.empty((nodes.shape[0], factor.degree + 1), dtype=complex)
    q[:, 0] = 1.0 / np.sqrt(factor.node_count)
    for k in range(factor.degree):
        step = nodes * q[:, k] - q[:, : k + 1] @ factor.h[: k + 1, k]
        q[:, k + 1] = step / factor.h[k + 1, k]
    return q


def z_only_coupling(r):
    """The real coupling from R_z alone: z^m = sum_k q_k R_km, read on the real frame."""
    p = r.shape[0] - 1
    s2 = math.sqrt(2.0)
    c = np.zeros((2 * p + 1, 2 * p + 1))
    c[0, 0] = r[0, 0].real
    for m in range(1, p + 1):
        col = r[:, m]
        c[2 * m - 1, 0], c[2 * m, 0] = col[0].real, col[0].imag
        c[2 * m - 1, 1::2], c[2 * m - 1, 2::2] = col[1:].real / s2, -col[1:].imag / s2
        c[2 * m, 1::2], c[2 * m, 2::2] = col[1:].imag / s2, col[1:].real / s2
    return c


def svd_pipeline(domain, source, n, data, m_rule=2):
    m = m_rule * n
    colloc = sample_collocation(domain, m)
    sources = sample_sources(source, n)
    scale = max_boundary_radius(domain)
    setup = setup_expansion(sources, scale, n, max_degree=(m - 1) // 2)
    basis = build_svd_basis(setup, colloc)
    a = assemble_svd_system(basis, colloc)
    record = solve_svd(basis, a, data.values(colloc.points))
    return basis, a, record, colloc


class TestBoundaryData:
    def test_x2y3(self):
        g = make_boundary_data("x2y3")
        assert g.values([2.0, 3.0])[0] == pytest.approx(4 * 27)

    def test_osc10(self):
        g = make_boundary_data("osc10")
        assert g.values([0.3, -0.2])[0] == pytest.approx(math.cos(3.0) * math.sin(-2.0))

    def test_harmonic_k(self):
        g = make_boundary_data("harmonic_k", k=5)
        x, y = 0.4, -0.7
        assert g.values([x, y])[0] == pytest.approx(((x + 1j * y) ** 5).real, rel=1e-14)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_boundary_data("r2d2")

    def test_harmonic_k_must_be_integral(self):
        assert make_boundary_data("harmonic_k", k=2.0).params == {"k": 2}
        with pytest.raises(ConfigError):
            make_boundary_data("harmonic_k", k=2.5)

    def test_harmonic_requires_k(self):
        with pytest.raises(ConfigError):
            make_boundary_data("harmonic_k")
        with pytest.raises(ConfigError):
            make_boundary_data("x2y3", k=3)


class TestDirect:
    def test_unit_distance_entry(self):
        a = assemble_direct(point_set([[2.0, 0.0]]), point_set([[1.0, 0.0]]))
        assert a.shape == (1, 1)
        assert a.dtype == np.float64
        assert a[0, 0] == 0.0

    def test_distance_e_entry(self):
        a = assemble_direct(point_set([[1.0 + math.e, 0.0]]), point_set([[1.0, 0.0]]))
        assert a[0, 0] == pytest.approx(-1 / (2 * math.pi), abs=1e-15)

    def test_coincident_point_names_indices(self):
        with pytest.raises(SingularityError) as err:
            assemble_direct(point_set([[2.0, 0.0], [1.0, 0.0]]), point_set([[1.0, 0.0]]))
        assert "0" in str(err.value) and "1" in str(err.value)

    def test_evaluation_at_a_source_raises(self):
        sources = point_set([[2.0, 0.0], [0.0, 2.0]])
        colloc = point_set([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        record = solve_direct(assemble_direct(sources, colloc), [1.0, 0.0, 0.5], sources)
        with pytest.raises(SingularityError):
            evaluate_solution(record, None, sources.points)

    def test_exact_representation_of_one_kernel(self):
        # g is the trace of the fundamental solution at one of the sources
        domain = make_curve("circle")
        sources = sample_sources(make_curve("circle", radius=2.0), 8)
        colloc = sample_collocation(domain, 16)
        a = assemble_direct(sources, colloc)
        ystar = sources.points[3]
        g = BoundaryData("kernel3", lambda x, y: -np.log(np.hypot(x - ystar[0], y - ystar[1])) / (2 * np.pi))
        record = solve_direct(a, g.values(colloc.points), sources)
        assert boundary_error(record, domain, g) <= 1e-12

    def test_offset_source_curve_solve(self):
        domain = make_curve("eta1")
        sources = sample_sources(make_curve("offset(eta1, rho=0.05)"), 60)
        colloc = sample_collocation(domain, 120)
        data = make_boundary_data("x2y3")
        a = assemble_direct(sources, colloc)
        record = solve_direct(a, data.values(colloc.points), sources)
        assert boundary_error(record, domain, data) < 1e-2
        assert evaluate_solution(record, None, colloc.points).dtype == np.float64


@pytest.mark.filterwarnings("error")
class TestKernelAccuracy:
    """Direct kernels from squared distances, held to a 30-digit reference at the same inputs."""

    @staticmethod
    def assert_matches_mpmath(points, sources):
        got = solvers.basis_values(sources, points)
        with mpmath.workdps(30):
            mp = mpmath.mpf
            ref = np.array(
                [
                    [float(-mpmath.log((mp(x) - mp(sx)) ** 2 + (mp(y) - mp(sy)) ** 2) / (4 * mpmath.pi))
                     for sx, sy in sources.points]
                    for x, y in points
                ]
            )
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - ref) <= np.finfo(float).eps * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("domain, source_radius", [("star_kite", 2.0), ("circle", 1.1)])
    def test_headline_geometries(self, domain, source_radius):
        points = sample_collocation(make_curve(domain), 64).points
        self.assert_matches_mpmath(points, sample_sources(make_curve("circle", radius=source_radius), 40))

    @pytest.mark.parametrize(
        "point_radius, source_radius",
        [(1.0, 1e300), (1e200, 1.3e200)],    # the squares would overflow unscaled
    )
    def test_far_scales(self, point_radius, source_radius):
        points = sample_collocation(make_curve("circle", radius=point_radius), 32).points
        self.assert_matches_mpmath(points, sample_sources(make_curve("circle", radius=source_radius), 24))

    def test_coincidence_at_a_far_scale(self):
        points = sample_collocation(make_curve("circle", radius=1e200), 16).points
        sources = point_set([[0.0, 1.3e200], points[7]])
        with pytest.raises(SingularityError, match="point 7 coincides with source 1"):
            solvers.basis_values(sources, points)

    def test_a_distance_its_square_cannot_hold_is_a_coincidence(self):
        # at a scale of 1e300 a distance of 1e-10 squares below the normal range
        points = np.array([[1e300, 0.0], [0.5, 0.0]])
        with pytest.raises(SingularityError, match="point 1 coincides with source 0"):
            solvers.basis_values(point_set([[0.5 + 1e-10, 0.0]]), points)


class TestSvdBasis:
    def test_single_source(self):
        domain = make_curve("circle")
        colloc = sample_collocation(domain, 8)
        sources = sample_sources(make_curve("circle", radius=3.0), 1)
        setup = setup_expansion(sources, 1.0, 1, max_degree=3)
        basis = build_svd_basis(setup, colloc)
        assert basis.basis_coords.shape[0] == 1
        assert np.linalg.norm(basis.basis_coords[0]) == pytest.approx(1.0, abs=1e-12)
        a = assemble_svd_system(basis, colloc)
        assert a.shape == (8, 1)

    def test_rows_orthonormal(self):
        data = make_boundary_data("x2y3")
        basis, _, _, _ = svd_pipeline(make_curve("eta1"), make_curve("circle", radius=1.5), 24, data)
        gram = basis.basis_coords @ basis.basis_coords.conj().T
        assert np.max(np.abs(gram - np.eye(24))) <= 1e-12

    def test_column_norm_bound(self):
        data = make_boundary_data("x2y3")
        _, a, _, _ = svd_pipeline(make_curve("star_kite"), make_curve("circle", radius=2.0), 30, data)
        assert np.max(np.linalg.norm(a, axis=0)) <= math.sqrt(2) + 1e-12

    def test_span_contains_kernel_traces(self):
        # direct kernel evaluation + least squares as the span oracle; N large
        # enough that the tolerance-driven degree fits under the grid cap, so
        # the expansion represents the kernels to machine precision
        domain = make_curve("star_kite")
        data = make_boundary_data("x2y3")
        basis, a, _, colloc = svd_pipeline(domain, make_curve("circle", radius=2.0), 100, data)
        sources = sample_sources(make_curve("circle", radius=2.0), 100)
        for j in range(0, 100, 10):
            trace = np.log(
                np.hypot(
                    colloc.points[:, 0] - sources.points[j, 0],
                    colloc.points[:, 1] - sources.points[j, 1],
                )
            )
            coeff = lstsq(a, trace.astype(complex))
            resid = np.linalg.norm(a @ coeff - trace) / np.linalg.norm(trace)
            assert resid <= 1e-10

    def test_concentric_disk_conditioning(self):
        data = make_boundary_data("x2y3")
        for n in (8, 64, 512):
            _, _, record, _ = svd_pipeline(make_curve("circle"), make_curve("circle", radius=2.0), n, data)
            assert record.cond2 <= 10.0

    def test_exact_representation_of_first_basis_function(self):
        domain = make_curve("eta2")
        data = make_boundary_data("x2y3")
        basis, a, _, colloc = svd_pipeline(domain, make_curve("ellipse"), 16, data)

        def phi1(x, y):
            pts = np.column_stack([np.atleast_1d(x), np.atleast_1d(y)])
            return solvers.basis_values(basis, pts)[:, 0]

        g = BoundaryData("phi1", lambda x, y: phi1(x, y))
        record = solve_svd(basis, a, g.values(colloc.points))
        assert boundary_error(record, domain, g) <= 1e-12

    def test_least_squares_optimality_under_perturbation(self):
        rng = np.random.default_rng(5)
        domain = make_curve("star_kite")
        data = make_boundary_data("x2y3")
        _, a, record, colloc = svd_pipeline(domain, make_curve("circle", radius=2.0), 20, data)
        g = data.values(colloc.points)
        base = np.linalg.norm(a @ record.coefficients - g)
        for _ in range(100):
            delta = 1e-6 * (rng.normal(size=20) + 1j * rng.normal(size=20))
            assert base <= np.linalg.norm(a @ (record.coefficients + delta) - g) + 1e-12

    def test_solves_on_a_point_set_other_than_the_build_set(self):
        # the basis functions are defined everywhere, so a denser grid than
        # the one the factors were built on gives an equally good system
        domain = make_curve("star_kite")
        data = make_boundary_data("x2y3")
        n = 100
        basis, _, built, _ = svd_pipeline(domain, make_curve("circle", radius=2.0), n, data)
        denser = sample_collocation(domain, 3 * n)
        record = solve_svd(basis, assemble_svd_system(basis, denser), data.values(denser.points))
        assert record.n_colloc == 3 * n
        assert record.cond2 <= 1.5
        err, built_err = boundary_error(record, domain, data), boundary_error(built, domain, data)
        assert abs(err - built_err) <= 0.01 * built_err

    @staticmethod
    def held_arrays(obj):
        """Every array a dataclass holds, nested records included, as its base array."""
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from TestSvdBasis.held_arrays(value)
            elif isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                yield value

    def test_holds_only_the_coordinates_and_the_hessenberg_matrix(self):
        # the replay needs H, the degree and M; no array with a row per node is kept
        data = make_boundary_data("x2y3")
        n = 100
        basis, _, _, colloc = svd_pipeline(make_curve("star_kite"), make_curve("circle", radius=2.0), n, data)
        arrays = list(self.held_arrays(basis))
        assert all(a.shape[0] != colloc.count for a in arrays)
        p = basis.degree
        hessenberg_bytes = (p + 1) * p * np.dtype(complex).itemsize
        assert sum(a.nbytes for a in arrays) <= basis.basis_coords.nbytes + hessenberg_bytes

    def test_build_and_assembly_peak_memory(self):
        # star svd N=500 (M=1000, p=250): traced peak 15.3 MiB; 16.8 MiB while the
        # assembly kept a complex M x N replay output, 19.2 MiB with the
        # complex expansion matrix and stacked coupling, and 36.4 MiB while the
        # basis kept the z factor's Q and R, the build kept both factors through
        # the SVD, and the frame's two halves were summed into fresh arrays
        curve = make_curve("star_kite")
        n, m = 500, 1000
        colloc = sample_collocation(curve, m)
        sources = sample_sources(make_curve("circle", radius=2.0), n)
        setup = setup_expansion(sources, max_boundary_radius(curve), n, max_degree=(m - 1) // 2)
        tracemalloc.start()
        try:
            assemble_svd_system(build_svd_basis(setup, colloc), colloc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 34 * 2**20

    def test_real_assembly_peak_memory(self):
        # star svd N=500 (M=1000, p=250): the real system is 3.8 MiB; traced
        # assembly peak 12.0 MiB (system, real frame block and replay scratch),
        # 13.9 MiB while the replay wrote a complex M x N output and its real
        # part was copied out, 26.7 MiB while the frame was complex and stacked
        curve = make_curve("star_kite")
        n, m = 500, 1000
        colloc = sample_collocation(curve, m)
        sources = sample_sources(make_curve("circle", radius=2.0), n)
        setup = setup_expansion(sources, max_boundary_radius(curve), n, max_degree=(m - 1) // 2)
        basis = build_svd_basis(setup, colloc)
        tracemalloc.start()
        try:
            assemble_svd_system(basis, colloc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_vanishing_singular_value_raises(self):
        # the expansion of sources at radius 1e300 underflows, and the reduced
        # matrix's singular-value tail ends in an exact 0: [2.8e-300, 2.8e-300, 0.0]
        colloc = sample_collocation(make_curve("circle"), 8)
        sources = sample_sources(make_curve("circle", radius=1e300), 4)
        with pytest.raises(RankDeficiencyError) as info:
            build_svd_basis(setup_expansion(sources, 1.0, 4, max_degree=3), colloc)
        assert info.value.tail[-1] == 0.0 < info.value.tail[-2]

    @staticmethod
    def cell(domain, source_radius, n):
        """(curve, collocation set, setup, basis) of an svd cell with M = 2N."""
        curve = make_curve(domain)
        colloc = sample_collocation(curve, 2 * n)
        sources = sample_sources(make_curve("circle", radius=source_radius), n)
        setup = setup_expansion(
            sources, max_boundary_radius(curve), n, max_degree=(2 * n - 1) // 2
        )
        return curve, colloc, setup, build_svd_basis(setup, colloc)

    @pytest.mark.parametrize(
        "domain, source_radius, n", [("star_kite", 2.0, 200), ("circle", 1.03, 250)]
    )
    def test_single_replay_matches_both_factors(self, domain, source_radius, n):
        curve, colloc, _, basis = self.cell(domain, source_radius, n)
        p = basis.degree

        def nodes(points):
            return scaled_coordinate(points, basis.scale_radius)

        # the premise of the single replay: the w factor is the z factor conjugated;
        # the basis keeps only the z factor's Hessenberg matrix, so rebuild both
        z_factor = arnoldi_vandermonde(nodes(colloc.points), p)
        w_factor = arnoldi_vandermonde(np.conj(nodes(colloc.points)), p)
        assert np.array_equal(z_factor.h, basis.h)
        assert np.array_equal(w_factor.q, np.conj(z_factor.q))
        pts = curve.point(np.linspace(0.0, 2 * np.pi, 777))
        pts = np.vstack([pts, 0.5 * pts])
        z = nodes(pts)
        rng = np.random.default_rng(n)
        coef = rng.normal(size=(2 * p + 1, 6))
        # the real frame is the stacked frame [q_z0..q_zp, q_w1..q_wp] times T,
        # each factor replayed at its own nodes, point by point
        stacked = np.hstack([pointwise_q(z_factor, z), pointwise_q(w_factor, np.conj(z))[:, 1:]])
        both = stacked @ (real_frame_map(p) @ coef)
        one = solvers.basis_values(frame_basis(basis), pts, coef)
        assert one.shape == both.shape
        assert np.max(np.abs(one - both)) <= 1e-13 * np.max(np.abs(both))

    @pytest.mark.parametrize("p", [0, 1, 7, 250])
    def test_real_frame_map_is_unitary(self, p):
        t = real_frame_map(p)
        assert np.max(np.abs(t.conj().T @ t - np.eye(2 * p + 1))) <= 1e-15

    @pytest.mark.parametrize(
        "domain, source_radius, n", [("star_kite", 2.0, 200), ("circle", 1.03, 250)]
    )
    def test_fold_drops_only_roundoff(self, domain, source_radius, n):
        # the stacked coupling K, read from the features [1, z^m, w^m] onto the
        # real features (P) and from the stacked frame onto the real one (conj T),
        # is the real coupling; a w factor that is not the conjugate of the z
        # factor shows up as a large imaginary part here
        _, colloc, _, basis = self.cell(domain, source_radius, n)
        p = basis.degree
        z = scaled_coordinate(colloc.points, basis.scale_radius)
        z_factor, w_factor = arnoldi_vandermonde(z, p), arnoldi_vandermonde(np.conj(z), p)
        stacked = stacked_coupling(z_factor, w_factor)
        folded = real_feature_map(p) @ stacked @ np.conj(real_frame_map(p))
        c = coupling_matrix(z_factor, w_factor)
        scale = np.max(np.abs(c))
        assert c.dtype == np.float64
        assert np.max(np.abs(folded.imag)) <= 1e-13 * scale
        assert np.max(np.abs(c - folded.real)) <= 1e-14 * scale

    @pytest.mark.parametrize(
        "domain, source_radius, n", [("star_kite", 2.0, 200), ("circle", 1.03, 250)]
    )
    def test_coupling_needs_only_the_z_factor(self, domain, source_radius, n):
        # R_w is bitwise conj(R_z), so the coupling formed from R_z + R_w and
        # R_z - R_w is bitwise the one formed from R_z alone, and the w factor
        # can go; the real frame times C.T gives the real monomials off the grid
        curve, colloc, _, basis = self.cell(domain, source_radius, n)
        p = basis.degree
        z = scaled_coordinate(colloc.points, basis.scale_radius)
        z_factor = arnoldi_vandermonde(z, p)
        c = coupling_matrix(z_factor, arnoldi_vandermonde(np.conj(z), p))
        assert c.dtype == np.float64
        assert c.tobytes() == z_only_coupling(z_factor.r).tobytes()
        pts = curve.point(np.linspace(0.0, 2 * np.pi, 777))
        pts = np.vstack([pts, 0.5 * pts])
        monomials = real_monomials(scaled_coordinate(pts, basis.scale_radius), p)
        # measured 4.8e-15 (near) and 3.3e-15 (star)
        frame_c = solvers.basis_values(frame_basis(basis), pts, c.T)
        assert np.max(np.abs(frame_c - monomials)) <= 1e-13

    def test_system_and_rows_are_real(self):
        data = make_boundary_data("x2y3")
        basis, a, _, _ = svd_pipeline(make_curve("star_kite"), make_curve("circle", radius=2.0), 50, data)
        assert basis.basis_coords.dtype == np.float64
        assert a.dtype == np.float64
        for n in (50, 200):
            row = run_single(star_config("svd", n), "svd", n)[0]
            assert row.max_imag == 0.0

    def test_frame_larger_than_grid_rejected(self):
        domain = make_curve("circle")
        colloc = sample_collocation(domain, 8)
        sources = sample_sources(make_curve("circle", radius=1.5), 4)
        setup = setup_expansion(sources, 1.0, 4)    # degree ~ 40 for this ratio
        with pytest.raises(ValueError):
            build_svd_basis(setup, colloc)


class TestQr:
    @staticmethod
    def trig_oracle(rho, n, p):
        """Sources on the radius-rho circle, the trigonometric matrix B and the scales d (R = 1)."""
        sources = sample_sources(make_curve("circle", radius=rho), n)
        m = np.arange(1, p + 1)
        b = np.empty((n, 2 * p + 1))
        b[:, 0] = -1.0
        ang = np.outer(sources.angles, m)
        b[:, 1::2] = -np.cos(ang)
        b[:, 2::2] = -np.sin(ang)
        d = np.empty(2 * p + 1)
        d[0] = math.log(1.0 / rho)
        d[1::2] = d[2::2] = (1.0 / rho) ** m / m
        return sources, b, d

    def test_expansion_real_form_is_the_trigonometric_matrix_times_the_scales(self):
        # log|x - y_j| = log|y_j| + sum_m (-Re u_j^m Re z^m + Im u_j^m Im z^m) / m
        sources, b, d = self.trig_oracle(2.0, 9, 12)
        e = expansion_matrix(sources, 1.0, 12).matrix
        assert e.dtype == np.float64
        # |B| <= 1, so column j is O(|d_j|); measured 4.6e-15 |d_j|
        assert np.all(np.abs(e - b * d) <= 1e-14 * np.abs(d))

    def test_scale_ratio_first_row(self):
        # the transform is B's R factor Hadamard-scaled by d_j / d_k.  Compared
        # row-relatively: R_B[0, m] is roundoff for equispaced sources, so an
        # entrywise ratio of two transforms compares roundoff with roundoff
        for rho, n, p in [(2.0, 9, 12), (2.0, 40, 25), (2.0, 200, 100), (1.1, 100, 60)]:
            sources, b, d = self.trig_oracle(rho, n, p)
            expected = d[None, :] / d[:n, None] * np.linalg.qr(b)[1]
            got = build_qr_basis(expansion_matrix(sources, 1.0, p)).transform
            err = np.max(np.abs(got - expected), axis=1)
            assert np.all(err <= 1e-13 * np.max(np.abs(expected), axis=1))

    def test_high_degree_rows_match_mpmath(self):
        # oracle: Re z^m, Im z^m of z = (x + iy)/R in 30-digit arithmetic
        curve = make_curve("star_kite")
        scale = max_boundary_radius(curve)
        pts = sample_collocation(curve, 10001).points
        p = 250
        rows = real_monomials(scaled_coordinate(pts, scale), p)
        sub = np.arange(0, 10001, 100)
        ref = np.empty((sub.size, 2 * p + 1))
        ref[:, 0] = 1.0
        with mpmath.workdps(30):
            for i, (x, y) in enumerate(pts[sub]):
                zm, z = mpmath.mpc(1), mpmath.mpc(x, y) / scale
                for m in range(1, p + 1):
                    zm *= z
                    ref[i, 2 * m - 1], ref[i, 2 * m] = float(zm.real), float(zm.imag)
        assert np.all(np.abs(rows[sub] - ref) <= 2e-12 * np.max(np.abs(ref), axis=0))

    def test_non_circular_sources_rejected(self):
        sources = sample_sources(make_curve("ellipse"), 10)
        with pytest.raises(ConfigError):
            build_qr_basis(expansion_matrix(sources, 1.0, 8))

    def test_degree_must_exceed_basis(self):
        sources = sample_sources(make_curve("circle", radius=2.0), 9)
        with pytest.raises(ValueError):
            build_qr_basis(expansion_matrix(sources, 1.0, 4))

    def test_exact_representation_of_one_kernel(self):
        domain = make_curve("star_kite")
        sources = sample_sources(make_curve("circle", radius=2.0), 12)
        colloc = sample_collocation(domain, 24)
        basis = build_qr_basis(expansion_matrix(sources, 1.0, 60))
        a = assemble_qr_system(basis, colloc)
        ystar = sources.points[5]
        g = BoundaryData("kernel5", lambda x, y: -np.log(np.hypot(x - ystar[0], y - ystar[1])) / (2 * np.pi))
        record = solve_qr(basis, a, g.values(colloc.points))
        # representation is exact up to the degree-60 truncation residual,
        # ~ (R/rho)^61 / (61 (1 - R/rho) 2 pi) ~ 1e-11 on this geometry
        assert boundary_error(record, domain, g) <= 1e-9
        assert evaluate_solution(record, None, colloc.points).dtype == np.float64


class TestQrBoundaryScaling:
    @staticmethod
    def star_config(n_values=(150,)):
        return ExperimentConfig(
            domain="star_kite",
            source="circle",
            source_params={"radius": 2.0},
            data="x2y3",
            methods=("qr",),
            n_values=n_values,
            timing=False,
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.5])
    def test_bad_scale_radius_rejected(self, bad):
        sources = sample_sources(make_curve("circle", radius=2.0), 9)
        with pytest.raises(ConfigError):
            build_qr_basis(expansion_matrix(sources, bad, 12))

    def test_error_keeps_falling_past_n150_on_star_kite(self):
        # with raw monomials the column norms spread by R^p (R ~ 1.43) and
        # the error jumped from ~1e-5 at N=150 to ~0.3 at every N >= 200
        cfg = self.star_config()
        err = {n: run_single(cfg, "qr", n)[0].linf_error for n in (150, 200, 300)}
        assert err[200] < err[150] and err[300] < err[150]
        assert err[200] < 1e-6

    def test_column_norms_stay_flat_at_n500(self):
        cfg = self.star_config()
        basis, ws = build_method_context(cfg, "qr", 500)
        assert basis.scale_radius == max_boundary_radius(ws.domain)
        a = assemble_qr_system(basis, sample_collocation(ws.domain, cfg.m_rule * 500))
        norms = np.linalg.norm(a, axis=0)
        assert np.max(norms) / np.min(norms) <= 1e2

    def test_assembly_evaluation_and_traces_share_the_scaling(self, tmp_path):
        domain = make_curve("star_kite")
        sources = sample_sources(make_curve("circle", radius=2.0), 20)
        colloc = sample_collocation(domain, 40)
        scale = max_boundary_radius(domain)
        basis = build_qr_basis(expansion_matrix(sources, scale, 30))
        assert basis.scale_radius == scale
        a = assemble_qr_system(basis, colloc)
        assert a.dtype == np.float64
        record = solve_qr(basis, a, make_boundary_data("x2y3").values(colloc.points))
        vals = evaluate_solution(record, None, colloc.points)
        expected = a @ record.coefficients
        assert np.max(np.abs(vals - expected)) <= 1e-12 * np.max(np.abs(expected))

        path = tmp_path / "qr.csv"
        emit_basis_samples(basis, domain, 64, path)
        dumped = np.loadtxt(path, delimiter=",", skiprows=1)
        pts = domain.point(dumped[:, 0])
        # unit coefficient vectors make evaluation return the basis columns
        unit = dataclasses.replace(record, coefficients=np.eye(basis.count))
        columns = evaluate_solution(unit, None, pts)
        assert np.allclose(dumped[:, 1:], columns, rtol=1e-12, atol=1e-12 * np.max(np.abs(columns)))


class TestEvaluation:
    def test_value_at_collocation_matches_data_within_recorded_error(self):
        domain = make_curve("eta1")
        data = make_boundary_data("osc10")
        basis, a, record, colloc = svd_pipeline(domain, make_curve("circle", radius=1.5), 40, data)
        err = boundary_error(record, domain, data)
        vals = evaluate_solution(record, basis, colloc.points)
        assert np.max(np.abs(vals - data.values(colloc.points))) <= err + 1e-12

    def test_context_of_another_backend_rejected(self):
        domain = make_curve("circle")
        data = make_boundary_data("x2y3")
        source = make_curve("circle", radius=2.0)
        svd_basis, _, svd_record, colloc = svd_pipeline(domain, source, 12, data)
        g = data.values(colloc.points)
        sources = sample_sources(source, 12)
        qr_basis = build_qr_basis(expansion_matrix(sources, 1.0, 12))
        qr_record = solve_qr(qr_basis, assemble_qr_system(qr_basis, colloc), g)
        direct_record = solve_direct(assemble_direct(sources, colloc), g, sources)
        for record, wrong in [
            (qr_record, svd_basis),
            (qr_record, sources),
            (svd_record, qr_basis),
            (svd_record, sources),
            (direct_record, svd_basis),
            (direct_record, qr_basis),
        ]:
            with pytest.raises(ValueError):
                evaluate_solution(record, wrong, colloc.points)

    def test_point2_and_array_forms_agree(self):
        domain = make_curve("circle")
        data = make_boundary_data("x2y3")
        basis, a, record, _ = svd_pipeline(domain, make_curve("circle", radius=2.0), 12, data)
        scalar = evaluate_solution(record, basis, (0.3, -0.4))
        arr = evaluate_solution(record, None, np.array([[0.3, -0.4]]))
        assert scalar == pytest.approx(arr[0], abs=1e-15)

    def test_boundary_error_stable_under_refinement(self):
        domain = make_curve("circle")
        data = make_boundary_data("x2y3")
        _, _, record, _ = svd_pipeline(domain, make_curve("circle", radius=1.1), 100, data)
        e1 = boundary_error(record, domain, data, count=10001)
        e2 = boundary_error(record, domain, data, count=20001)
        assert abs(e2 - e1) <= 0.05 * max(e1, e2)

    def test_max_imag_small_on_converged_solve(self):
        cfg = ExperimentConfig(
            domain="circle", source="gamma_blob", data="x2y3", methods=("svd",), n_values=(60,)
        )
        row, _ = run_single(cfg, "svd", 60)
        assert row.linf_error <= 1e-12
        assert row.max_imag <= 1e-8

    @pytest.mark.parametrize("method", ["direct", "qr", "svd"])
    def test_complex_coefficients_raise_type_error(self, method):
        # every basis is real, so the result is float64 and a complex block
        # cannot be cast into it
        cfg = ExperimentConfig(
            domain="star_kite", source="circle", source_params={"radius": 2.0},
            data="x2y3", methods=(method,), n_values=(20,),
        )
        context = build_method_context(cfg, method, 20)[0]
        points = sample_collocation(make_curve("star_kite"), 40).points
        coef = np.ones((20, 2)) + 1j
        assert solvers.basis_values(context, points, coef.real).dtype == np.float64
        for block in (coef, coef[:, 0]):
            with pytest.raises(TypeError):
                solvers.basis_values(context, points, block)

    def test_maximum_principle_on_harmonic_data(self):
        rng = np.random.default_rng(9)
        domain = make_curve("eta1")
        data = make_boundary_data("harmonic_k", k=4)
        basis, _, record, _ = svd_pipeline(domain, make_curve("circle", radius=1.5), 30, data)
        err = boundary_error(record, domain, data)
        t = rng.uniform(0, 2 * np.pi, 50)
        s = rng.uniform(0.05, 0.85, 50)
        pts = s[:, None] * domain.point(t)
        interior = np.max(np.abs(evaluate_solution(record, basis, pts) - data.values(pts)))
        assert interior <= err + 1e-13

    def test_runtime_recorded(self):
        # the cell time is the row's: the record holds only what the solve produced
        domain = make_curve("circle")
        data = make_boundary_data("x2y3")
        _, _, record, _ = svd_pipeline(domain, make_curve("circle", radius=2.0), 8, data)
        assert record.method == "svd" and record.n_basis == 8 and record.n_colloc == 16
        assert not hasattr(record, "runtime_ms")
        row, _ = run_single(dataclasses.replace(star_config("svd", 8), timing=True), "svd", 8)
        assert row.runtime_ms > 0.0

    def test_full_scale_n800(self):
        # largest configured problem: 1600x800 system, conditioning still flat
        domain = make_curve("star_kite")
        data = make_boundary_data("x2y3")
        _, a, record, _ = svd_pipeline(domain, make_curve("circle", radius=2.0), 800, data)
        assert a.shape == (1600, 800)
        assert 1.0 <= record.cond2 <= 10.0
        assert boundary_error(record, domain, data) <= 1e-12


def star_config(method, n):
    """Config of one star_kite cell with sources on the radius-2 circle."""
    return ExperimentConfig(
        domain="star_kite",
        source="circle",
        source_params={"radius": 2.0},
        data="x2y3",
        methods=(method,),
        n_values=(n,),
        timing=False,
    )


def star_cell(method, n):
    """Solved record of one star_kite cell with sources on the radius-2 circle."""
    return run_single(star_config(method, n), method, n)[1]


class TestSolveRecord:
    def test_fields_cannot_be_assigned(self):
        record = star_cell("direct", 8)
        for name, value in [("cond2", 1.0), ("coefficients", None), ("context", None)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, value)

    @pytest.mark.parametrize("method", ["direct", "qr", "svd"])
    def test_boundary_error_is_the_row_value(self, method):
        cfg = star_config(method, 20)
        row, record = run_single(cfg, method, 20)
        err = boundary_error(record, make_curve("star_kite"), make_boundary_data("x2y3"), cfg.error_samples)
        assert type(err) is float and err == row.linf_error

    def test_record_without_context_is_rejected(self):
        record = dataclasses.replace(star_cell("direct", 8), context=None)
        with pytest.raises(ValueError, match="cannot use a NoneType"):
            boundary_error(record, make_curve("star_kite"), make_boundary_data("x2y3"))


class TestCoefficientFirstEvaluation:
    def test_qr_boundary_error_never_forms_the_basis_matrix(self):
        record = star_cell("qr", 500)
        monomial_bytes = 10001 * (2 * record.context.degree + 1) * 8
        tracemalloc.start()
        try:
            boundary_error(record, make_curve("star_kite"), make_boundary_data("x2y3"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (10001, 2p+1) monomials, not also a (10001, N) basis matrix
        assert peak < 1.5 * monomial_bytes

    @pytest.mark.parametrize("method", ["direct", "qr", "svd"])
    def test_unit_coefficients_evaluate_to_the_dumped_traces(self, method, tmp_path):
        domain = make_curve("star_kite")
        record = star_cell(method, 20)
        path = tmp_path / "basis.csv"
        emit_basis_samples(record.context, domain, 64, path)
        dumped = np.loadtxt(path, delimiter=",", skiprows=1)
        unit = dataclasses.replace(record, coefficients=np.eye(record.n_basis))
        columns = evaluate_solution(unit, None, domain.point(dumped[:, 0]))
        if method == "direct":    # the dump normalizes each kernel trace
            columns = columns / np.max(np.abs(columns), axis=0)
        assert np.allclose(dumped[:, 1:], columns, rtol=1e-12, atol=1e-12 * np.max(np.abs(columns)))

    @pytest.mark.parametrize("method", ["direct", "svd"])
    def test_evaluation_is_the_explicit_coefficient_first_product(self, method):
        domain = make_curve("star_kite")
        record = star_cell(method, 40)
        boundary = domain.point(np.linspace(0.0, 2 * np.pi, 301))
        pts = np.vstack([boundary, 0.5 * boundary])
        c = record.coefficients
        if method == "direct":
            expected = assemble_direct(record.context, point_set(pts)) @ c
        else:
            basis = record.context
            expected = solvers.basis_values(frame_basis(basis), pts, basis.basis_coords.T @ c)
        assert np.array_equal(evaluate_solution(record, None, pts), expected)

    def test_svd_evaluation_at_the_collocation_points_is_the_system_product(self):
        # the replayed system matrix against the real frame built from the
        # factor's own Q: [q_0, sqrt2 Re q_1, sqrt2 Im q_1, ..., sqrt2 Im q_p]
        basis = star_cell("svd", 200).context
        colloc = sample_collocation(make_curve("star_kite"), 400)
        q = arnoldi_vandermonde(scaled_coordinate(colloc.points, basis.scale_radius), basis.degree).q
        frame = np.empty((q.shape[0], 2 * basis.degree + 1))
        frame[:, 0] = q[:, 0].real
        frame[:, 1::2] = math.sqrt(2.0) * q[:, 1:].real
        frame[:, 2::2] = math.sqrt(2.0) * q[:, 1:].imag
        expected = frame @ basis.basis_coords.T
        got = assemble_svd_system(basis, colloc)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_svd_boundary_error_never_forms_the_frame(self):
        record = star_cell("svd", 500)
        frame_bytes = 10001 * (record.context.degree + 1) * 16
        tracemalloc.start()
        try:
            boundary_error(record, make_curve("star_kite"), make_boundary_data("x2y3"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # not even the z half of the (10001, 2p+1) stacked frame
        assert peak < frame_bytes


class TestBlockedEvaluation:
    """qr and svd rows are made arnoldi.CHUNK points at a time, direct rows in 1 MiB blocks, never all at once."""

    # the last of three blocks holds one point
    count = 2 * arnoldi.CHUNK + 1

    def boundary(self):
        t = np.linspace(0.0, 2 * np.pi, self.count, endpoint=False)
        return make_curve("star_kite").point(t)

    @staticmethod
    def assert_contraction(got, rows, coords):
        # two summation orders of a width-term dot product differ by at most
        # 2 * width * eps times the sum of the term moduli
        bound = 2 * rows.shape[1] * np.finfo(float).eps * (np.abs(rows) @ np.abs(coords))
        assert got.shape == bound.shape
        assert np.all(np.abs(got - rows @ coords) <= bound)

    def test_direct_matches_the_one_shot_kernel(self):
        pts = self.boundary()
        sources = sample_sources(make_curve("circle", radius=2.0), 40)
        # the direct block holds min(CHUNK, _KERNEL_BLOCK // N) points; the last holds one
        assert self.count % min(arnoldi.CHUNK, solvers._KERNEL_BLOCK // sources.count) == 1
        s = sources.points
        dx = pts[:, 0, None] - s[None, :, 0]
        dy = pts[:, 1, None] - s[None, :, 1]
        kernel = np.log(dx * dx + dy * dy) * (-0.25 / math.pi)
        assert np.array_equal(solvers.basis_values(sources, pts), kernel)
        coef = np.random.default_rng(5).standard_normal((sources.count, 2))
        self.assert_contraction(solvers.basis_values(sources, pts, coef), kernel, coef)

    def test_qr_matches_the_one_shot_monomial_product(self):
        pts = self.boundary()
        scale = max_boundary_radius(make_curve("star_kite"))
        sources = sample_sources(make_curve("circle", radius=2.0), 40)
        basis = build_qr_basis(expansion_matrix(sources, scale, 25))
        rows = real_monomials(scaled_coordinate(pts, scale), basis.degree)
        self.assert_contraction(solvers.basis_values(basis, pts), rows, basis.transform.T)
        coef = np.random.default_rng(6).standard_normal((basis.count, 2))
        coords = basis.transform.T @ coef
        self.assert_contraction(solvers.basis_values(basis, pts, coef), rows, coords)

    def test_svd_replays_one_block_at_a_time(self, monkeypatch):
        pts = self.boundary()
        curve = make_curve("star_kite")
        sources = sample_sources(make_curve("circle", radius=2.0), 40)
        colloc = sample_collocation(curve, 80)
        basis = build_svd_basis(setup_expansion(sources, max_boundary_radius(curve), 40, max_degree=39), colloc)
        with monkeypatch.context() as one_block:
            one_block.setattr(arnoldi, "CHUNK", self.count)
            rows = solvers.basis_values(frame_basis(basis), pts)
        calls = []
        replay = solvers.evaluate_basis

        def counted(*args):
            result = replay(*args)
            calls.append((len(args[1]), result.dtype, result.shape))
            return result

        monkeypatch.setattr(solvers, "evaluate_basis", counted)
        self.assert_contraction(solvers.basis_values(basis, pts), rows, basis.basis_coords.T)
        coef = np.random.default_rng(7).standard_normal((basis.count, 2))
        coords = basis.basis_coords.T @ coef
        self.assert_contraction(solvers.basis_values(basis, pts, coef), rows, coords)
        # two evaluations, three blocks each; the last block of each holds one point
        assert [b for b, _, _ in calls] == 2 * [arnoldi.CHUNK, arnoldi.CHUNK, 1]
        assert all(d == np.float64 and shape == (b, rows.shape[1]) for b, d, shape in calls)

    def test_coincidence_names_the_global_point_index(self):
        pts = self.boundary()
        # row-major, the first coincident pair is (CHUNK + 5, source 1)
        sources = point_set([pts[arnoldi.CHUNK + 9], pts[arnoldi.CHUNK + 5]])
        message = rf"point {arnoldi.CHUNK + 5} coincides with source 1"
        with pytest.raises(SingularityError, match=message):
            solvers.basis_values(sources, pts)

    @pytest.mark.parametrize(
        "method, n, source_radius, domain, limit_mib",
        [
            ("direct", 1000, 1.1, "circle", 4),     # a direct_disk cell; 229.1 MiB when formed
            ("qr", 500, 2.0, "star_kite", 8),       # a star_sweep cell; 38.7 MiB when formed
        ],
    )
    def test_boundary_error_peak_memory(self, method, n, source_radius, domain, limit_mib):
        cfg = ExperimentConfig(
            domain=domain,
            source="circle",
            source_params={"radius": source_radius},
            data="x2y3",
            methods=(method,),
            n_values=(n,),
            timing=False,
        )
        record = run_single(cfg, method, n)[1]
        tracemalloc.start()
        try:
            boundary_error(record, make_curve(domain), make_boundary_data("x2y3"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20
