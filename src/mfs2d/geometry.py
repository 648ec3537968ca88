"""Closed planar boundary curves and point sampling.

Provides the fixed curve catalog used by the solvers and benchmarks,
uniform-parameter sampling of collocation and source points, the maximum
boundary radius used to scale harmonic monomials, and the geometric
separation check that the series expansion of the log kernel requires.

Every curve is a BoundaryCurve: point and tangent maps over t in [0, 2*pi),
closed and counterclockwise.  Catalog curves are smooth and star shaped;
construction runs a cheap sanity check (positive radius for radial curves,
positive distance from the origin for parametric ones) but no global
self-intersection test.  `offset(<base>, rho=<v>)` moves a catalog curve by
rho along its outward normal, the tangent rotated by -pi/2.  A catalog
curve's tangent is the complex step of its point map, exact to rounding; an
offset's is a difference, since its map goes through float-only calls.
"""

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, CurveParameterError, DegenerateCurveError

TWO_PI = 2.0 * math.pi


def wrap_angle(a):
    """Map angles into [0, 2*pi); rounding can push np.mod output onto 2*pi."""
    b = np.mod(a, TWO_PI)
    return np.where(b >= TWO_PI, 0.0, b)


def polar_coordinates(points):
    """Radii and angles in [0, 2*pi) of an (n, 2) point array."""
    return np.hypot(points[:, 0], points[:, 1]), wrap_angle(np.arctan2(points[:, 1], points[:, 0]))


def scaled_coordinate(points, scale_radius: float) -> np.ndarray:
    """z = (x + iy)/R of (n, 2) points, x/R and y/R rounded once; features are powers of z."""
    return (np.asarray(points, dtype=float) / scale_radius).view(complex)[:, 0]


def _as_param_array(t):
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("curve parameter must be finite")
    return t


class BoundaryCurve:
    """Closed curve t -> (x(t), y(t)) over t in [0, 2*pi).

    `point` and `tangent` (the derivative of point in t) map a float array t
    to shape (..., 2).  Callers pass both: a default complex step of point
    would be silently wrong for a map that is not analytic in t.  Every curve
    make_curve builds runs counterclockwise (positive signed area), and so
    does its offset, whose signed area is A + rho*L + pi*rho**2;
    outward_normal relies on this.  `folds` counts the samples where an
    offset folds back on itself: its tangent opposes the base's.
    """

    folds = 0

    def __init__(self, name: str, point: Callable, tangent: Callable):
        self.name = name
        self._point = point
        self._tangent = tangent

    def point(self, t):
        """Curve point(s) at parameter t; shape (..., 2)."""
        return self._point(_as_param_array(t))

    def tangent(self, t):
        """Derivative of point with respect to t; shape (..., 2)."""
        return self._tangent(_as_param_array(t))

    def __repr__(self):
        return f"<BoundaryCurve {self.name}>"


_CHECK_GRID = np.linspace(0.0, TWO_PI, 1024, endpoint=False)


def _complex_step(point: Callable) -> Callable:
    """Tangent t -> Im point(t + i*h) / h, h = 2**-60, of a map analytic in t.

    The complex step (Squire & Trapp, SIAM Rev. 40, 1998) subtracts nothing,
    so its O(h**2) error is far below rounding, and scaling by 2**60 is exact.
    """
    return lambda t: point(t + 1j * 2.0**-60).imag * 2.0**60


def _circle(radius=1.0, cx=0.0, cy=0.0):
    def point(t):
        return np.stack([cx + radius * np.cos(t), cy + radius * np.sin(t)], axis=-1)

    return BoundaryCurve("circle", point, _complex_step(point))


def _polar(name: str, radial: Callable):
    """Curve r(t)*(cos t, sin t) for a positive radial function."""
    if np.min(radial(_CHECK_GRID)) <= 0.0:
        raise DegenerateCurveError(f"radial function of '{name}' is not positive")

    def point(t):
        r = radial(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    return BoundaryCurve(name, point, _complex_step(point))


def _parametric(name: str, fx: Callable, fy: Callable):
    """Curve (x(t), y(t)) given by explicit coordinate functions."""

    def point(t):
        return np.stack([fx(t), fy(t)], axis=-1)

    if np.min(np.hypot(*point(_CHECK_GRID).T)) <= 0.0:
        raise DegenerateCurveError(f"curve '{name}' passes through the origin")
    return BoundaryCurve(name, point, _complex_step(point))


def _offset(base: BoundaryCurve, rho: float):
    """Base curve moved rho along its outward normal; where rho exceeds the
    radius of curvature of a concave arc, the offset folds back on itself."""

    def point(t):
        return base.point(t) + rho * outward_normal(base, t)

    def tangent(t):
        # base.point casts t to float, so no complex step passes through it; a
        # fourth-order central difference of point() is accurate to ~1e-11.
        h = 1e-5
        return (
            8.0 * (point(t + h) - point(t - h)) - (point(t + 2 * h) - point(t - 2 * h))
        ) / (12.0 * h)

    curve = BoundaryCurve(f"offset({base.name}, rho={rho:g})", point, tangent)
    along = np.sum(curve.tangent(_CHECK_GRID) * base.tangent(_CHECK_GRID), axis=-1)
    curve.folds = int(np.count_nonzero(along < 0.0))
    return curve


# --- catalog radial / coordinate functions ---------------------------------


def _star_kite_r(t):
    return (np.cos(4 * t) + np.sqrt(3.6 - np.sin(4 * t) ** 2)) ** (1.0 / 3.0)


def _osc_r(c0):
    return lambda t: c0 + np.cos(6 * t) / 5.0 + np.cos(3 * t) / 10.0


def _eta1_r(t):
    return 1.0 + np.cos(3 * t) / 5.0


def _eta2_x(t):
    return np.cos(t) * (1.0 - np.sin(2 * t) / 2.0)


def _eta2_y(t):
    return np.sin(t) + np.cos(4 * t) / 6.0


def _gamma(t):
    return np.exp(np.sin(t)) * np.sin(2 * t) ** 2 + np.exp(np.cos(t)) * np.cos(2 * t) ** 2


def _gamma_blob_x(t):
    return 4.0 * _gamma(t) * np.cos(t) - 1.0


def _gamma_blob_y(t):
    return 4.0 * _gamma(t) * np.sin(t) - 1.0


def _ellipse(a=2.0, b=1.5):
    return _parametric("ellipse", lambda t: a * np.cos(t), lambda t: b * np.sin(t))


_CATALOG = {
    "circle": (_circle, {"radius", "cx", "cy"}),
    "ellipse": (_ellipse, {"a", "b"}),
    "star_kite": (lambda: _polar("star_kite", _star_kite_r), set()),
    "gamma_blob": (lambda: _parametric("gamma_blob", _gamma_blob_x, _gamma_blob_y), set()),
    "osc_r1": (lambda: _polar("osc_r1", _osc_r(1.2)), set()),
    "osc_art": (lambda: _polar("osc_art", _osc_r(2.0)), set()),
    "eta1": (lambda: _polar("eta1", _eta1_r), set()),
    "eta2": (lambda: _parametric("eta2", _eta2_x, _eta2_y), set()),
}

_OFFSET_RE = re.compile(r"^offset\(\s*([a-z0-9_]+)\s*,\s*rho\s*=\s*([^\s,)]+)\s*\)$")


def curve_names():
    """Names accepted by make_curve (offset curves use 'offset(<base>, rho=<v>)')."""
    return sorted(_CATALOG)


def make_curve(name: str, **params) -> BoundaryCurve:
    """Build a catalog curve by name.

    Parameters
    ----------
    name : str
        One of the catalog names, or the form ``offset(<base>, rho=<val>)``.
    **params
        Numeric parameters for parameterized catalog entries
        (circle: radius, cx, cy; ellipse: a, b).

    Raises
    ------
    ConfigError
        Unknown name or parameter not supported by the named curve.
    CurveParameterError
        A parameter (or offset rho) that is not a finite number, or a
        radius, semi-axis or rho that is not positive.  The center cx, cy
        may take any finite value.
    """
    name = name.strip()
    m = _OFFSET_RE.match(name)
    if m:
        if params:
            raise ConfigError("offset(...) form does not take extra parameters")
        base = make_curve(m.group(1))
        try:
            rho = float(m.group(2))
        except ValueError:
            raise ConfigError(f"bad rho value in {name!r}") from None
        return _offset(base, _checked(name, "rho", rho))
    if name not in _CATALOG:
        raise ConfigError(f"unknown curve {name!r}; known: {', '.join(curve_names())}")
    factory, allowed = _CATALOG[name]
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"curve {name!r} does not accept parameters {sorted(unknown)}")
    return factory(**{k: _checked(name, k, v) for k, v in params.items()})


_POSITIVE_PARAMS = {"radius", "a", "b", "rho"}


def _checked(name: str, key: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise CurveParameterError(f"curve {name!r}: {key} must be finite, got {value!r}")
    if key in _POSITIVE_PARAMS and value <= 0.0:
        raise CurveParameterError(f"curve {name!r}: {key} must be positive, got {value!r}")
    return value


# --- point sets -------------------------------------------------------------


@dataclass(frozen=True)
class PointSet:
    """Points sampled at stored curve parameters; polar data follow the points."""

    points: np.ndarray    # (n, 2)
    params: np.ndarray    # (n,)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def radii(self) -> np.ndarray:
        return polar_coordinates(self.points)[0]

    @property
    def angles(self) -> np.ndarray:
        return polar_coordinates(self.points)[1]


def outward_normal(curve: BoundaryCurve, t):
    """Unit outward normal(s) at parameter t: the tangent rotated by -pi/2.

    Outward because every BoundaryCurve runs counterclockwise.

    Raises
    ------
    DegenerateCurveError
        Zero tangent vector at t.
    """
    tg = curve.tangent(t)
    norm = np.linalg.norm(tg, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise DegenerateCurveError(f"zero tangent on '{curve.name}'")
    return np.stack([tg[..., 1], -tg[..., 0]], axis=-1) / norm


def _uniform_params(count: int) -> np.ndarray:
    return TWO_PI * np.arange(1, count + 1) / count


def sample_collocation(curve: BoundaryCurve, count: int) -> PointSet:
    """Sample `count` curve points at uniform parameters t_i = 2*pi*i/count."""
    if count < 1:
        raise ValueError("point count must be >= 1")
    params = _uniform_params(int(count))
    return PointSet(points=curve.point(params), params=params)


def sample_sources(curve: BoundaryCurve, count: int) -> PointSet:
    """Sample `count` source points on the given curve at uniform parameters."""
    sources = sample_collocation(curve, count)
    if np.any(sources.radii == 0.0):
        raise DegenerateCurveError("source point at the origin has no polar angle")
    return sources


_RADIUS_GRID = 2048    # uniform parameters that bracket the maximizer


def max_boundary_radius(curve: BoundaryCurve) -> float:
    """Maximum distance of the curve from the origin.

    A uniform grid of 2048 parameters locates the maximizer; golden-section
    refinement on the bracketing interval tightens it to ~1e-12 in parameter,
    giving a lower bound tight to ~1e-10 relative for smooth curves.
    """
    grid = np.linspace(0.0, TWO_PI, _RADIUS_GRID, endpoint=False)
    pts = curve.point(grid)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    k = int(np.argmax(norms))
    h = TWO_PI / _RADIUS_GRID

    def f(t):
        return math.hypot(*curve.point(t))

    a, b = grid[k] - h, grid[k] + h
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a < 1e-13:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(float(norms[k]), fc, fd)


def series_ratio(sources: PointSet, scale_radius: float) -> float:
    """Kernel series ratio q = max_j (scale_radius / rho_j); q < 1 separates the sources."""
    if not (math.isfinite(scale_radius) and scale_radius > 0.0):
        raise ConfigError(f"scale radius must be finite and positive, got {scale_radius!r}")
    return float(np.max(scale_radius / sources.radii))


def check_source_constraint(sources: PointSet, boundary_radius: float) -> float:
    """Separation margin 1 - series_ratio(sources, boundary_radius).

    Positive margin means every source lies outside the closed origin-centered
    disk that contains the boundary, which guarantees convergence of the
    log-kernel series expansion on the domain.
    """
    return 1.0 - series_ratio(sources, boundary_radius)
