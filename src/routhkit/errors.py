"""Exception types shared across the package.

Each class carries the stable CLI exit code of its failure kind as
``exit_code``: configuration errors exit 2 (also the base class),
chart/domain errors exit 3, consistency errors exit 4, convergence
failures exit 5.
"""


class RouthkitError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(RouthkitError):
    """Malformed or inconsistent run configuration."""


class InvalidParams(RouthkitError):
    """Physical parameters violate their invariants."""


class ChartBoundary(RouthkitError):
    """Evaluation requested within the guard distance of the chart boundary."""

    exit_code = 3


class NotPositiveDefinite(RouthkitError):
    """Kinetic matrix is not symmetric positive definite."""

    exit_code = 3


class SingularReducedMass(RouthkitError):
    """Reduced mass matrix could not be inverted."""

    exit_code = 3


class OffSurface(RouthkitError):
    """Point violates the ellipsoid constraint beyond tolerance."""

    exit_code = 3


class TangencyViolation(RouthkitError):
    """Velocity is not tangent to the constraint surface."""

    exit_code = 3


class NonPositiveFactor(RouthkitError):
    """Time-change density must be strictly positive along the trajectory."""

    exit_code = 3


class MomentumMismatch(RouthkitError):
    """Trajectory metadata carries a different momentum value than requested."""

    exit_code = 4


class GridMismatch(RouthkitError):
    """Sample grid does not cover the requested interval."""

    exit_code = 4


class SpanTooShort(RouthkitError):
    """Trajectory does not span enough time for the requested check."""

    exit_code = 4


class StepFailure(RouthkitError):
    """Integrator step size underflowed or produced non-finite values."""

    exit_code = 5


class MaxStepsExceeded(RouthkitError):
    """Integrator exceeded its step budget."""

    exit_code = 5


class NoConvergence(RouthkitError):
    """Iterative solver failed to reach its tolerance."""

    exit_code = 5
