"""Exception types shared across the package.

Two broad families: configuration problems (bad catalog names, bad config
files, unsupported setups) and numerical failures (constraint violations,
singular or degenerate inputs).  The CLI maps them to exit codes 2 and 3.
Plain argument misuse raises the builtin ValueError.
"""


class ConfigError(Exception):
    """Unknown catalog name, malformed config, or unsupported configuration."""


class CurveParameterError(ConfigError, ValueError):
    """Curve parameter that is not finite or not positive where it must be.

    Also a ValueError, the type the curve constructors raise for a
    non-positive radius, semi-axis or offset distance.
    """


class NumericalError(Exception):
    """Base class for failures of a numerical precondition or process."""


class ConstraintViolationError(NumericalError):
    """Source points violate the separation constraint max_j (R / rho_j) < 1.

    `margin` is 1 - q for the series ratio q = max_j R / rho_j.
    """

    def __init__(self, margin, message=None):
        self.margin = float(margin)
        ratio = 1.0 - self.margin
        super().__init__(
            message or f"series ratio {ratio:.6g} is not in (0, 1) (margin={self.margin:.6g})"
        )


class SingularityError(NumericalError):
    """Kernel evaluated at coincident points."""


class DegenerateNodesError(NumericalError):
    """Arnoldi breakdown: nodes cannot support the requested degree."""

    def __init__(self, step, message=None):
        self.step = int(step)
        super().__init__(message or f"Arnoldi breakdown at step {step}")


class DegenerateSystemError(NumericalError, ValueError):
    """Linear system with non-finite entries, or the zero matrix (also a ValueError)."""


class DegenerateCurveError(NumericalError):
    """Curve fails a geometric sanity check (zero tangent, nonpositive radius)."""


class RankDeficiencyError(NumericalError):
    """Trailing singular values of the reduced expansion matrix collapsed."""

    def __init__(self, tail, message=None):
        self.tail = list(tail)
        super().__init__(message or f"rank deficiency, singular-value tail {tail}")


class SizeLimitError(NumericalError):
    """Problem whose largest matrix would exceed the memory budget."""


class InsufficientDataError(NumericalError):
    """Not enough usable rows for a fit."""
