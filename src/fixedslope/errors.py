"""Exception types shared across the package."""


class FixedSlopeError(Exception):
    """Base class for all package-specific errors."""


class RadiusOutOfRange(FixedSlopeError):
    """Evaluation requested outside [0, R] or beyond the tabulated domain."""


class NuNotContractive(FixedSlopeError):
    """The measure is >= 1 at radius 0; nu and eta hold the start's values if measured."""

    def __init__(self, message, nu=None, eta=None):
        super().__init__(message)
        self.nu, self.eta = nu, eta


class NotCertifiedError(FixedSlopeError):
    """An operation that needs a certifiable majorant model got one without a root."""


class CertificateMissing(FixedSlopeError):
    """Bound verification was asked for, but the model cannot back a certificate."""


class JacobianMissing(FixedSlopeError):
    """Measure estimation needs a Jacobian evaluator and the problem has none."""


class EvaluationFailed(FixedSlopeError):
    """The operator (or its Jacobian) raised or returned non-finite values."""


class UnknownFixture(FixedSlopeError):
    """No bundled fixture under that name."""


class BadParameters(FixedSlopeError):
    """Fixture or problem parameters are inconsistent."""
