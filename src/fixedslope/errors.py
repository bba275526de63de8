"""Exception types shared across the package."""


class FixedSlopeError(Exception):
    """Base class for all package-specific errors."""


class RadiusOutOfRange(FixedSlopeError):
    """Evaluation requested outside [0, R] or beyond the tabulated domain."""


class NotCertifiedError(FixedSlopeError):
    """An operation that needs a certified certificate or model got a refused one."""


class NuNotContractive(NotCertifiedError):
    """The continuity measure is already >= 1 at radius 0; nu is that value."""

    def __init__(self, nu):
        super().__init__(f"omega(0) = {nu} >= 1: the map is not a contraction at x0")
        self.nu = nu


class JacobianMissing(FixedSlopeError):
    """Measure estimation needs a Jacobian evaluator and the problem has none."""


class EvaluationFailed(FixedSlopeError):
    """The operator (or its Jacobian) raised or returned non-finite values."""


class UnknownFixture(FixedSlopeError):
    """No bundled fixture under that name."""


class BadParameters(FixedSlopeError):
    """Fixture or problem parameters are inconsistent."""
