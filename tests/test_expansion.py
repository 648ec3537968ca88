import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfs2d import (
    MACHINE_EPS,
    ConfigError,
    ConstraintViolationError,
    SingularityError,
    SizeLimitError,
    check_source_constraint,
    expansion_degree,
    expansion_matrix,
    fundamental_solution,
    hurwitz_lerch_phi1,
    log_kernel,
    make_curve,
    max_boundary_radius,
    real_monomials,
    sample_collocation,
    sample_sources,
    setup_expansion,
    truncation_order,
)
from mfs2d import expansion
from mfs2d.geometry import PointSet, scaled_coordinate, series_ratio


def single_source(x, y):
    return PointSet(points=np.array([[x, y]]), params=np.array([0.0]))


class TestKernels:
    def test_unit_distance(self):
        assert log_kernel((0, 0), (1, 0)) == 0.0

    def test_distance_e(self):
        assert log_kernel((0, 0), (math.e, 0)) == pytest.approx(1.0, abs=1e-15)
        assert fundamental_solution((0, 0), (math.e, 0)) == pytest.approx(
            -1 / (2 * math.pi), abs=1e-15
        )

    def test_three_four_five(self):
        # distance 5 by Pythagoras, log from the stdlib
        assert log_kernel((0, 0), (3, 4)) == pytest.approx(math.log(5.0), rel=1e-15)

    def test_coincident_points(self):
        with pytest.raises(SingularityError):
            log_kernel((1.5, -2.0), (1.5, -2.0))


class TestHurwitzLerch:
    def test_z_zero(self):
        assert hurwitz_lerch_phi1(0.0, 7) == pytest.approx(1 / 7, abs=1e-16)

    def test_closed_form_half(self):
        assert hurwitz_lerch_phi1(0.5, 1) == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_decreasing_in_a(self):
        vals = [hurwitz_lerch_phi1(0.5, a) for a in range(1, 51)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("z", [0.05, 0.3, 0.6, 0.85, 0.99])
    @pytest.mark.parametrize("a", [1, 2, 10])
    def test_against_mpmath(self, z, a):
        expected = float(mpmath.lerchphi(z, 1, a))
        assert hurwitz_lerch_phi1(z, a) == pytest.approx(expected, rel=1e-13)

    @given(z=st.floats(min_value=1e-6, max_value=0.999), a=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_geometric_bounds(self, z, a):
        val = hurwitz_lerch_phi1(z, a)
        assert 1 / a < val <= 1 / (a * (1 - z)) + 1e-15

    @pytest.mark.parametrize("a", [1, 2, 1000])
    def test_near_one_in_bounded_time(self, a):
        # the series would need about 4e9 terms; the closed form needs a - 1
        z = 1 - 1e-8
        t0 = time.perf_counter()
        got = hurwitz_lerch_phi1(z, a)
        elapsed = time.perf_counter() - t0
        expected = float(mpmath.lerchphi(mpmath.mpf(z), 1, a))
        assert abs(got - expected) <= 1e-12 * expected
        assert elapsed < 1.0

    def test_summed_series_in_bounded_memory(self):
        # a tail of 4e-3 of -log(1 - z) rules the closed form out: about 4e5 terms are summed
        z, a = 1 - 1e-4, 30000
        tracemalloc.start()
        try:
            got = hurwitz_lerch_phi1(z, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = float(mpmath.lerchphi(mpmath.mpf(z), 1, a))
        assert abs(got - expected) <= 1e-13 * expected
        assert peak < 2**20

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hurwitz_lerch_phi1(1.0, 1)
        with pytest.raises(ValueError):
            hurwitz_lerch_phi1(-0.1, 1)
        with pytest.raises(ValueError):
            hurwitz_lerch_phi1(0.5, 0)


class TestTruncationOrder:
    def test_minimality_against_mpmath(self):
        q, tol = 0.5, 1e-16
        p0 = truncation_order(q, tol)

        def bound(p):
            return float(mpmath.mpf(q) ** (p + 1) * mpmath.lerchphi(q, 1, p + 1))

        assert bound(p0) <= tol * (1 + 1e-10)
        assert bound(p0 - 1) > tol * (1 - 1e-10)

    def test_monotone_in_ratio(self):
        assert truncation_order(0.1, 1e-16) < truncation_order(0.5, 1e-16)

    def test_huge_tolerance(self):
        assert truncation_order(0.63, 10.0) == 0

    def test_divergent_ratio(self):
        with pytest.raises(ConstraintViolationError):
            truncation_order(1.0, 1e-16)
        with pytest.raises(ValueError):
            truncation_order(0.5, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            truncation_order(0.5, tol)

    @staticmethod
    def linear_order(q, tol):
        """Reference: raise p0 from zero until the computed tail is at most tol."""
        p0 = 0
        while q ** (p0 + 1) * hurwitz_lerch_phi1(q, p0 + 1) > tol:
            p0 += 1
        return p0

    @pytest.mark.parametrize(
        "tol", [MACHINE_EPS, 1e-12, 1e-8, 1e-3, 10.0], ids=["eps", "1e-12", "1e-8", "1e-3", "10"]
    )
    def test_matches_linear_search(self, tol):
        ratios = [1e-9, 1e-3, 0.05, *np.linspace(0.1, 0.9, 9), 0.95, 1 / 1.03, 0.99]
        for q in ratios:
            assert truncation_order(float(q), tol) == self.linear_order(float(q), tol), q

    @pytest.mark.parametrize(
        "ratio, expected",
        [(1 / 1.03, 1101), (0.7128, 96), (1 / 1.1, 341), (0.99, 3237), (0.999, 32516)],
    )
    def test_pinned_orders_at_machine_eps(self, ratio, expected):
        assert truncation_order(ratio, MACHINE_EPS) == expected

    def test_search_makes_no_phi_calls(self, monkeypatch):
        calls = []

        def counting(z, a):
            calls.append(a)
            return hurwitz_lerch_phi1(z, a)

        monkeypatch.setattr(expansion, "hurwitz_lerch_phi1", counting)
        assert truncation_order(1 / 1.03, MACHINE_EPS) == 1101
        assert calls == []

    def test_near_one_order_in_bounded_memory(self):
        tracemalloc.start()
        try:
            p0 = truncation_order(1 - 1e-5, MACHINE_EPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p0 == 3253183
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_order_independent_of_block_size(self, monkeypatch, block):
        cases = [(q, tol) for q in (0.5, 1 / 1.03, 0.99) for tol in (MACHINE_EPS, 1e-8)]
        monkeypatch.setattr(expansion, "TAIL_BLOCK", block)
        orders = [truncation_order(q, tol) for q, tol in cases]
        assert orders == [47, 22, 1101, 528, 3237, 1554]


class TestKernelTail:
    @pytest.mark.parametrize("q", [1e-3, 0.5, 1 / 1.03, 1 - 1e-7, 1 - 2.0**-52])
    @pytest.mark.parametrize("order", [0, 1, 7, 250, 5000])
    def test_closed_form_matches_lerchphi(self, q, order):
        expected = mpmath.mpf(q) ** (order + 1) * mpmath.lerchphi(q, 1, order + 1)
        got = expansion.kernel_tail(q, order)
        # the subtraction is exact to a few eps * |log(1 - q)|
        assert abs(got - float(expected)) <= 4 * MACHINE_EPS * -math.log1p(-q)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_independent_of_block_size(self, monkeypatch, block):
        expected = expansion.kernel_tail(0.999, 9000)
        monkeypatch.setattr(expansion, "TAIL_BLOCK", block)
        assert expansion.kernel_tail(0.999, 9000) == expected


class TestCappedTruncationOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        q=st.floats(1e-6, 0.999),
        tol=st.sampled_from([MACHINE_EPS, 1e-12, 1e-6, 0.1, 1.0, 10.0]),
        shift=st.integers(-50, 50),
    )
    def test_cap_changes_nothing_below_it(self, q, tol, shift):
        p0 = truncation_order(q, tol)
        cap = max(0, p0 + shift)
        capped = truncation_order(q, tol, cap)
        if p0 <= cap:
            assert capped == p0
        else:    # p0 when walked, cap + 1 when the closed-form tail settled it
            assert capped in (p0, cap + 1)

    @pytest.mark.parametrize("q", [1 - 1e-7, 1 - 1e-10, 1 - 2.0**-52])
    def test_binding_cap_returns_without_the_walk(self, q):
        # the uncapped walk would take O(1 / (1 - q)) terms
        assert truncation_order(q, MACHINE_EPS, 7) == 8
        assert truncation_order(q, MACHINE_EPS, 6710) == 6711

    @pytest.mark.parametrize("q, p0", [(1 - 1e-7, 255), (1 - 1e-6, 25)])
    def test_cap_above_the_order_starts_the_walk_at_the_cap(self, q, p0):
        # p0 <= cap < K ~ 50 / (1 - q): a walk from K would add ~5e8 terms at q = 1 - 1e-7
        t0 = time.perf_counter()
        assert truncation_order(q, 10.0, 999) == p0
        assert time.perf_counter() - t0 < 0.5
        assert expansion.kernel_tail(q, p0) <= 10.0 < expansion.kernel_tail(q, p0 - 1)

    def test_setup_records_the_binding_cap(self):
        sources = PointSet(points=np.array([[1.0 + 1e-9, 0.0]]), params=np.zeros(1))
        setup = setup_expansion(sources, 1.0, 1, max_degree=7)
        assert setup.degree == 7 and setup.base_order == 8

    @pytest.mark.parametrize("n", [10, 100])
    def test_uncapped_setup_is_bounded_by_the_size_budget(self, n):
        # q = 1 - 1e-8: an uncapped walk from K ~ 9e9 did not return in 25 s; the
        # default charge of 16 bytes per N x (2p+1) entry caps the order search instead
        sources = sample_sources(make_curve("circle", radius=1.0 / (1.0 - 1e-8)), n)
        cap = (expansion.FEATURE_BYTES_MAX // (16 * n) - 1) // 2
        t0 = time.perf_counter()
        with pytest.raises(SizeLimitError, match=f"p > {cap} needs more than 1 GiB"):
            setup_expansion(sources, 1.0, n)
        assert time.perf_counter() - t0 < 1.0

    def test_uncapped_setup_is_bounded_in_work(self):
        # N = 1, q = 1 - 1e-6: p0 = 32531979 fits the 1 GiB byte cap (33554431),
        # but its power loop alone would take ~30 s; the degree bound refuses it first
        sources = sample_sources(make_curve("circle", radius=1.0 / (1.0 - 1e-6)), 1)
        t0 = time.perf_counter()
        with pytest.raises(SizeLimitError, match=f"p > {expansion.MAX_DEGREE} is over the degree bound"):
            setup_expansion(sources, 1.0, 1)
        assert time.perf_counter() - t0 < 2.0

    def test_the_budget_cap_leaves_an_order_below_it(self):
        sources = sample_sources(make_curve("circle", radius=1.05), 4)
        setup = setup_expansion(sources, 1.0, 4)
        p0 = truncation_order(series_ratio(sources, 1.0), MACHINE_EPS)
        assert setup.base_order == setup.degree == p0


class TestExpansionDegree:
    @pytest.mark.parametrize(
        "p0,n,expected", [(40, 100, 50), (80, 100, 80), (0, 1, 0), (3, 4, 3), (0, 5, 2)]
    )
    def test_values(self, p0, n, expected):
        assert expansion_degree(p0, n) == expected

    def test_feature_count_covers_basis(self):
        for n in range(1, 60):
            assert 2 * expansion_degree(0, n) + 1 >= n

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            expansion_degree(-1, 10)
        with pytest.raises(ValueError):
            expansion_degree(3, 0)


class TestExpansionMatrix:
    def test_single_source_row(self):
        # y = 2, u = 1/2: log|x - 2| = log 2 - Re z / 2 + O(z^2)
        setup = expansion_matrix(single_source(2.0, 0.0), 1.0, 1)
        row = setup.matrix[0]
        assert setup.matrix.dtype == np.float64
        assert row[0] == pytest.approx(math.log(2), abs=1e-15)
        assert row[1] == pytest.approx(-0.5, abs=1e-15)
        assert row[2] == 0.0

    def test_in_place_division_is_bitwise_the_quotient(self):
        sources = sample_sources(make_curve("ellipse", a=1.6, b=1.2), 7)
        mat = expansion_matrix(sources, 1.0, 40).matrix
        u = 1.0 / scaled_coordinate(sources.points, 1.0)
        quotient = np.conj(expansion._powers(u, 40)) / -np.arange(1, 41)
        assert mat[:, 1:].tobytes() == quotient.view(float).tobytes()

    def test_origin_hits_constant_column(self):
        sources = sample_sources(make_curve("circle", radius=2.0), 5)
        setup = expansion_matrix(sources, 1.0, 4)
        vals = setup.kernel_values(np.array([0.0]), np.array([0.0]))[:, 0]
        assert np.array_equal(vals, setup.matrix[:, 0])

    def test_conjugate_block_symmetry(self):
        # the kernel is real: each degree's column pair is one complex
        # coefficient u^m / m, split as -Re on Re z^m and +Im on Im z^m
        sources = sample_sources(make_curve("gamma_blob"), 9)
        setup = expansion_matrix(sources, 1.0, 8)
        p = setup.degree
        u = 1.0 / scaled_coordinate(sources.points, 1.0)
        coef = expansion._powers(u, p) / np.arange(1, p + 1)
        assert np.array_equal(setup.matrix[:, 1::2], -coef.real)
        assert np.array_equal(setup.matrix[:, 2::2], coef.imag)

    def test_reconstructs_log_kernel(self):
        # oracle: direct log-kernel evaluation at random boundary points
        domain = make_curve("star_kite")
        scale = max_boundary_radius(domain)
        sources = sample_sources(make_curve("circle", radius=2.0), 12)
        setup = setup_expansion(sources, scale, 12)
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, 2 * np.pi, 40)
        pts = domain.point(t)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        angles = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * np.pi)
        approx = setup.kernel_values(radii, angles)
        for j in range(sources.count):
            exact = np.array([log_kernel(p, sources.points[j]) for p in pts])
            tol = 1e-12 * np.maximum(1.0, np.abs(exact))
            assert np.all(np.abs(approx[j] - exact) <= tol)
        assert approx.dtype == np.float64

    @pytest.mark.parametrize(
        "curve, params, scale, degree, n",
        [("circle", {"radius": 1.03}, 1.0, 500, 250), ("gamma_blob", {}, 2.4, 400, 300)],
    )
    def test_high_degree_entries_match_mpmath(self, curve, params, scale, degree, n):
        # oracle: log|y_j|, -Re u_j^m / m and Im u_j^m / m, u_j = R / y_j, in
        # 30-digit arithmetic
        sources = sample_sources(make_curve(curve, **params), n)
        setup = expansion_matrix(sources, scale, degree)
        rows = np.arange(0, n, 10)
        ref = np.empty((rows.size, 2 * degree + 1))
        with mpmath.workdps(30):
            for i, (x, y) in enumerate(sources.points[rows]):
                y_j = mpmath.mpc(x, y)
                u = scale / y_j
                ref[i, 0] = float(mpmath.log(abs(y_j)))
                um = mpmath.mpc(1)
                for m in range(1, degree + 1):
                    um *= u
                    ref[i, 2 * m - 1], ref[i, 2 * m] = float(-um.real / m), float(um.imag / m)
        got = setup.matrix[rows]
        assert np.all(np.abs(got[:, 0] - ref[:, 0]) <= 2e-12 * np.max(np.abs(ref[:, 0])))
        # per degree: Re and Im share the scale |u^m| / m
        scale_m = np.repeat(np.max(np.hypot(ref[:, 1::2], ref[:, 2::2]), axis=0), 2)
        assert np.all(np.abs(got[:, 1:] - ref[:, 1:]) <= 2e-12 * scale_m)

    def test_truncation_residual_bound(self):
        # deliberately low degree: the residual estimate must still hold
        domain = make_curve("circle")
        sources = sample_sources(make_curve("circle", radius=1.6), 7)
        setup = expansion_matrix(sources, 1.0, 12)
        q = float(np.max(1.0 / sources.radii))
        bound = q ** 13 * hurwitz_lerch_phi1(q, 13)
        colloc = sample_collocation(domain, 64)
        approx = setup.kernel_values(colloc.radii, colloc.angles)
        for j in range(sources.count):
            exact = np.array([log_kernel(p, sources.points[j]) for p in colloc.points])
            assert np.max(np.abs(approx[j] - exact)) <= bound * (1 + 1e-10) + 1e-15

    def test_constraint_violation_carries_margin(self):
        sources = sample_sources(make_curve("circle", radius=0.8), 4)
        with pytest.raises(ConstraintViolationError) as err:
            expansion_matrix(sources, 1.0, 8)
        assert err.value.margin == pytest.approx(1 - 1 / 0.8, abs=1e-12)

    def test_constraint_violation_reads_as_truncation_order_says_it(self):
        sources = sample_sources(make_curve("circle", radius=1.2), 8)
        with pytest.raises(ConstraintViolationError) as fixed_degree:
            expansion_matrix(sources, 1.5, 4)
        with pytest.raises(ConstraintViolationError) as order_search:
            truncation_order(1.25, MACHINE_EPS)
        assert str(fixed_degree.value) == str(order_search.value)
        assert str(order_search.value) == "series ratio 1.25 is not in (0, 1) (margin=-0.25)"

    @pytest.mark.parametrize("bad", [math.nan, -1.5, 0.0, math.inf])
    def test_bad_scale_radius_rejected_before_any_arithmetic(self, bad):
        # one check, in series_ratio, for every entry point that takes R
        sources = sample_sources(make_curve("circle", radius=2.0), 4)
        calls = (
            lambda r: series_ratio(sources, r),
            lambda r: check_source_constraint(sources, r),
            lambda r: expansion_matrix(sources, r, 4),
            lambda r: setup_expansion(sources, r, 4),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ConfigError, match="scale radius must be finite and positive"):
                    call(bad)

    def test_degree_too_small(self):
        sources = sample_sources(make_curve("circle", radius=2.0), 9)
        with pytest.raises(ValueError):
            expansion_matrix(sources, 1.0, 3)

    def test_degree_cap(self):
        sources = sample_sources(make_curve("circle", radius=1.05), 4)
        setup = setup_expansion(sources, 1.0, 4, max_degree=10)
        assert setup.degree == 10
        assert setup.base_order > 10


class TestHarmonicMonomials:
    def test_shape_and_leading_one(self):
        f = real_monomials(np.array([0.25 + 0.2j]), 3)
        assert f.shape == (1, 7) and f.dtype == np.float64
        assert f[0, 0] == 1.0

    def test_conjugate_halves(self):
        # each power's pair is its real and imaginary part, the float view of z^m
        z = np.array([0.7 + 0.2j, -0.3 + 1.1j]) / 1.5
        f = real_monomials(z, 4)
        powers = expansion._powers(z, 4)
        assert np.array_equal(f[:, 1::2], powers.real)
        assert np.array_equal(f[:, 2::2], powers.imag)

    def test_powers_multiply(self):
        z = 0.9 * np.exp(0.4j)
        f = real_monomials(np.array([z]), 5)
        assert np.allclose(f[0, 1::2] + 1j * f[0, 2::2], z ** np.arange(1, 6), rtol=1e-14)
