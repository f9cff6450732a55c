"""Exception types shared across the package."""


class CarfimaError(Exception):
    """Base class for all carfima errors."""


class DomainError(CarfimaError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(CarfimaError):
    """An iterative evaluation exhausted its term budget."""


class RepeatedEigenvaluesError(CarfimaError):
    """Closed-form route refused: companion eigenvalues too close together."""


class SingularLyapunovError(CarfimaError):
    """The Lyapunov system for the stationary state covariance is singular."""


class QuadratureError(CarfimaError):
    """A quadrature's error estimate exceeded its tolerance."""


class TailBoundTooLooseError(CarfimaError):
    """Aliased-spectrum tail bracket wider than the requested tolerance."""


class FactorizationFailureError(CarfimaError):
    """Covariance factorization failed even after jitter escalation."""
