import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfs2d import (
    BoundaryCurve,
    ConfigError,
    DegenerateCurveError,
    check_source_constraint,
    curve_names,
    make_curve,
    max_boundary_radius,
    outward_normal,
    sample_collocation,
    sample_sources,
)
from mfs2d.geometry import PointSet, _polar, _uniform_params, polar_coordinates

ALL_NAMES = ["circle", "ellipse", "star_kite", "gamma_blob", "osc_r1", "osc_art", "eta1", "eta2"]


def fd_normal(curve, t, h=1e-6):
    """Finite-difference oracle: central-difference tangent rotated by -pi/2."""
    d = (curve.point(t + h) - curve.point(t - h)) / (2 * h)
    return np.array([d[1], -d[0]]) / np.hypot(d[0], d[1])


def mp_point_maps():
    """Each catalog point map restated in mpmath, at the catalog's default parameters."""
    mp = mpmath

    def polar(radial):
        return lambda t: (radial(t) * mp.cos(t), radial(t) * mp.sin(t))

    def gamma(t):
        return mp.exp(mp.sin(t)) * mp.sin(2 * t) ** 2 + mp.exp(mp.cos(t)) * mp.cos(2 * t) ** 2

    def osc(c0):
        return polar(lambda t: c0 + mp.cos(6 * t) / 5 + mp.cos(3 * t) / 10)

    return {
        "circle": lambda t: (mp.cos(t), mp.sin(t)),
        "ellipse": lambda t: (2 * mp.cos(t), mp.mpf(3) / 2 * mp.sin(t)),
        "star_kite": polar(
            lambda t: mp.cbrt(mp.cos(4 * t) + mp.sqrt(mp.mpf(18) / 5 - mp.sin(4 * t) ** 2))
        ),
        "gamma_blob": lambda t: (4 * gamma(t) * mp.cos(t) - 1, 4 * gamma(t) * mp.sin(t) - 1),
        "osc_r1": osc(mp.mpf(6) / 5),
        "osc_art": osc(2),
        "eta1": polar(lambda t: 1 + mp.cos(3 * t) / 5),
        "eta2": lambda t: (mp.cos(t) * (1 - mp.sin(2 * t) / 2), mp.sin(t) + mp.cos(4 * t) / 6),
    }


def shoelace_area(curve, samples=4096):
    """Signed area of the polygon through `samples` uniform-parameter points."""
    x, y = curve.point(_uniform_params(samples)).T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def inside_polygon(points, polygon):
    """Crossing-number test: True where a point lies inside the closed polygon."""
    x, y = points[:, 0:1], points[:, 1:2]
    xa, ya = polygon[:, 0], polygon[:, 1]
    xb, yb = np.roll(xa, -1), np.roll(ya, -1)
    straddles = (ya > y) != (yb > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = xa + (y - ya) * (xb - xa) / (yb - ya)
    return np.sum(straddles & (x < x_cross), axis=1) % 2 == 1


class TestBoundaryPoint:
    def test_circle_radius_two(self):
        p = make_curve("circle", radius=2.0).point(0.0)
        assert (p[0], p[1]) == (2.0, 0.0)

    def test_eta2_at_zero(self):
        p = make_curve("eta2").point(0.0)
        assert p[0] == pytest.approx(1.0, abs=1e-15)
        assert p[1] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_star_kite_at_zero_high_precision(self):
        # independent arbitrary-precision evaluation of the radial formula
        expected = float((mpmath.cos(0) + mpmath.sqrt(mpmath.mpf(18) / 5 - mpmath.sin(0) ** 2)) ** (mpmath.mpf(1) / 3))
        p = make_curve("star_kite").point(0.0)
        assert p[0] == pytest.approx(expected, rel=1e-15)
        assert p[1] == 0.0

    def test_unknown_name_is_config_error(self):
        with pytest.raises(ConfigError):
            make_curve("nonagon")

    def test_unknown_param_is_config_error(self):
        with pytest.raises(ConfigError):
            make_curve("star_kite", radius=2.0)

    def test_offset_string_form(self):
        curve = make_curve("offset(eta1, rho=0.05)")
        base = make_curve("eta1")
        t = np.linspace(0.0, 2 * np.pi, 17)
        d = np.linalg.norm(curve.point(t) - base.point(t), axis=1)
        assert np.allclose(d, 0.05, atol=1e-15)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("circle", {"radius": math.nan}),
            ("circle", {"radius": math.inf}),
            ("circle", {"cx": -math.inf}),
            ("ellipse", {"a": math.nan}),
            ("offset(circle, rho=nan)", {}),
            ("offset(circle, rho=inf)", {}),
        ],
    )
    def test_non_finite_parameter_is_config_error(self, name, params):
        with pytest.raises(ConfigError):
            make_curve(name, **params)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("circle", {"radius": -1.0}),
            ("circle", {"radius": 0.0}),
            ("ellipse", {"a": 0.0}),
            ("ellipse", {"b": -1.5}),
            ("offset(eta1, rho=-0.1)", {}),
            ("offset(eta1, rho=0)", {}),
        ],
    )
    def test_non_positive_parameter_is_config_error(self, name, params):
        with pytest.raises(ConfigError, match="must be positive"):
            make_curve(name, **params)

    def test_circle_center_may_be_zero_or_negative(self):
        curve = make_curve("circle", radius=0.5, cx=-2.0, cy=0.0)
        assert np.allclose(curve.point(0.0), [-1.5, 0.0], atol=1e-15)

    def test_offset_bad_rho(self):
        with pytest.raises(ConfigError):
            make_curve("offset(eta1, rho=abc)")
        with pytest.raises(ValueError):
            make_curve("offset(eta1, rho=-0.1)")


class TestOutwardNormal:
    def test_unit_circle_top(self):
        n = outward_normal(make_curve("circle"), math.pi / 2)
        assert np.allclose(n, [0.0, 1.0], atol=1e-15)

    def test_ellipse_axis_point(self):
        n = outward_normal(make_curve("ellipse"), 0.0)
        assert np.allclose(n, [1.0, 0.0], atol=1e-15)

    def test_eta1_matches_finite_differences(self):
        curve = make_curve("eta1")
        n = outward_normal(curve, 0.7)
        assert np.allclose(n, fd_normal(curve, 0.7), atol=1e-8)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_all_catalog_normals_match_finite_differences(self, name):
        curve = make_curve(name)
        # t = 5.3 lies on the concave gamma_blob arc whose tangent lines leave
        # the mean of the curve's sample points on their outer side
        for t in [*np.linspace(0.1, 2 * np.pi, 9), 5.3]:
            assert np.allclose(outward_normal(curve, t), fd_normal(curve, t), atol=1e-7)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_tangent_matches_a_30_digit_derivative_to_rounding(self, name):
        # t = 5.3 lies on the concave gamma_blob arc
        t = np.append(_uniform_params(9), 5.3)
        tangent = make_curve(name).tangent(t)
        assert tangent.dtype == np.float64 and tangent.shape == (t.size, 2)
        point = mp_point_maps()[name]

        def derivative(tk, i):
            return float(mpmath.diff(lambda s: point(s)[i], mpmath.mpf(tk)))

        with mpmath.workdps(30):
            exact = np.array([[derivative(tk, i) for i in (0, 1)] for tk in t])
        # a few eps is the floor: the float maps round their own arguments (6t reaches 37.7)
        err = np.linalg.norm(tangent - exact, axis=-1)
        assert np.all(err <= 8 * np.finfo(float).eps * np.linalg.norm(exact, axis=-1))

    def test_unit_norm(self):
        curve = make_curve("gamma_blob")
        t = np.linspace(0.0, 2 * np.pi, 50)
        n = outward_normal(curve, t)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-14)


class TestSampling:
    def test_circle_four_points(self):
        pts = sample_collocation(make_curve("circle"), 4).points
        expected = {(1, 0), (-1, 0), (0, 1), (0, -1)}
        got = {(round(x, 12), round(y, 12)) for x, y in pts}
        assert got == {(float(a), float(b)) for a, b in expected}

    def test_single_point_is_parameter_two_pi(self):
        cs = sample_collocation(make_curve("eta2"), 1)
        assert cs.params[0] == pytest.approx(2 * math.pi)
        assert np.allclose(cs.points[0], make_curve("eta2").point(0.0), atol=1e-12)

    def test_star_radii_match_formula(self):
        cs = sample_collocation(make_curve("star_kite"), 8)
        t = cs.params
        expected = (np.cos(4 * t) + np.sqrt(18 / 5 - np.sin(4 * t) ** 2)) ** (1 / 3)
        assert np.allclose(cs.radii, expected, rtol=1e-13)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            sample_collocation(make_curve("circle"), 0)
        with pytest.raises(ValueError):
            sample_sources(make_curve("circle"), -3)

    def test_points_reevaluate_at_stored_params(self):
        for name in ("star_kite", "gamma_blob", "offset(eta2, rho=0.05)"):
            curve = make_curve(name)
            cs = sample_collocation(curve, 13)
            assert np.array_equal(cs.points, curve.point(cs.params))

    def test_source_polar_data(self):
        ss = sample_sources(make_curve("circle", radius=2.0), 6)
        assert np.allclose(ss.radii, 2.0, atol=1e-14)
        assert np.all((0.0 <= ss.angles) & (ss.angles < 2 * np.pi))
        rebuilt = ss.radii[:, None] * np.stack([np.cos(ss.angles), np.sin(ss.angles)], axis=1)
        assert np.allclose(rebuilt, ss.points, atol=1e-12)

    def test_polar_data_follow_the_points(self):
        ss = sample_sources(make_curve("star_kite"), 12)
        moved = dataclasses.replace(ss, points=2 * ss.points)
        assert np.array_equal(moved.radii, np.hypot(*(2 * ss.points).T))
        assert np.array_equal(moved.angles, polar_coordinates(2 * ss.points)[1])


class TestMaxBoundaryRadius:
    def test_unit_circle(self):
        assert max_boundary_radius(make_curve("circle")) == pytest.approx(1.0, abs=1e-12)

    def test_ellipse(self):
        assert max_boundary_radius(make_curve("ellipse")) == pytest.approx(2.0, abs=1e-10)

    def test_star_kite_analytic_and_self_convergent(self):
        analytic = (1 + math.sqrt(18 / 5)) ** (1 / 3)
        curve = make_curve("star_kite")
        radius = max_boundary_radius(curve)
        assert radius == pytest.approx(analytic, rel=1e-12)
        dense = np.max(np.hypot(*curve.point(np.linspace(0, 2 * np.pi, 2**20, endpoint=False)).T))
        assert abs(dense - radius) <= 1e-10 * radius


class TestSourceConstraint:
    def test_disk_sources_outside(self):
        ss = sample_sources(make_curve("circle", radius=1.1), 16)
        assert check_source_constraint(ss, 1.0) == pytest.approx(1 - 1 / 1.1, abs=1e-12)

    def test_disk_sources_inside(self):
        ss = sample_sources(make_curve("circle", radius=0.9), 16)
        assert check_source_constraint(ss, 1.0) <= 0.0

    def test_eta2_with_ellipse_sources(self):
        # margin computed directly from the sampled source radii
        ss = sample_sources(make_curve("ellipse"), 40)
        r = max_boundary_radius(make_curve("eta2"))
        margin = check_source_constraint(ss, r)
        assert margin == pytest.approx(1 - r / np.min(ss.radii), abs=1e-14)
        assert margin > 0.0

    @given(
        radius=st.floats(min_value=1.05, max_value=50.0),
        grow=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_moving_sources_outward_never_flips_ok(self, radius, grow):
        ss = sample_sources(make_curve("circle", radius=radius), 8)
        scaled = PointSet(points=ss.points * grow, params=ss.params)
        before = check_source_constraint(ss, 1.0)
        after = check_source_constraint(scaled, 1.0)
        assert after >= before - 1e-15
        if before > 0.0:
            assert after > 0.0


class TestCurveProperties:
    @pytest.mark.parametrize("name", ALL_NAMES + ["offset(eta1, rho=0.1)"])
    def test_closed_2pi_periodic(self, name):
        curve = make_curve(name)
        t = np.linspace(0.0, 2 * np.pi, 37)
        assert np.allclose(curve.point(t), curve.point(t + 2 * np.pi), atol=1e-12)

    def test_offset_reconstruction(self):
        base = make_curve("eta2")
        off = make_curve("offset(eta2, rho=0.05)")
        t = np.linspace(0.0, 2 * np.pi, 29)
        delta = off.point(t) - base.point(t)
        assert np.allclose(delta, 0.05 * outward_normal(base, t), atol=1e-15)

    def test_degenerate_radial_curve_rejected(self):
        with pytest.raises(DegenerateCurveError):
            _polar("bad", np.cos)

    def test_zero_tangent_rejected(self):
        frozen = BoundaryCurve(
            "frozen",
            lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
            lambda t: np.zeros(t.shape + (2,)),
        )
        with pytest.raises(DegenerateCurveError):
            outward_normal(frozen, 0.3)

    def test_nonpositive_circle_radius_rejected(self):
        with pytest.raises(ValueError):
            make_curve("circle", radius=0.0)

    @pytest.mark.parametrize("name", ALL_NAMES + [f"offset({b}, rho=0.5)" for b in ALL_NAMES])
    def test_counterclockwise(self, name):
        # outward_normal rotates the tangent by -pi/2, which is outward only
        # on a counterclockwise curve
        assert shoelace_area(make_curve(name)) > 0.0

    @pytest.mark.parametrize("rho", [0.05, 0.5])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_offset_points_lie_outside_the_base(self, name, rho):
        base = make_curve(name)
        polygon = base.point(_uniform_params(4096))
        offset = make_curve(f"offset({name}, rho={rho})")
        pts = offset.point(_uniform_params(200))
        assert not np.any(inside_polygon(pts, polygon))

    def test_catalog_listing(self):
        assert set(ALL_NAMES) == set(curve_names())


class TestPolarCoordinates:
    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_theta_range(self, x, y):
        r, theta = polar_coordinates(np.array([[x, y]]))
        assert 0.0 <= theta[0] < 2 * math.pi
        assert r[0] == pytest.approx(math.hypot(x, y))


def test_uniform_params_exclude_zero_include_two_pi():
    t = _uniform_params(5)
    assert t[0] > 0.0
    assert t[-1] == pytest.approx(2 * math.pi)
