"""Exception types shared across the package."""

__all__ = [
    "RedarError",
    "DimensionMismatch",
    "NotStable",
    "NotStabilizable",
    "Unstable",
    "DegenerateNoise",
    "GenerationFailed",
    "InsufficientData",
    "OrderMismatch",
    "PredictorUnstable",
    "RhoTooSmall",
    "InvalidT0",
    "TBelowT0",
    "SchemaError",
    "NumericalError",
]


class RedarError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(RedarError):
    """Matrix dimensions are inconsistent with the operation's contract."""


class NotStable(RedarError):
    """A spectral radius strictly inside the unit disk was required."""


class NotStabilizable(RedarError):
    """The Riccati iteration failed to produce a stabilizing solution."""


class Unstable(RedarError):
    """The assembled closed loop is not internally stable."""


class DegenerateNoise(RedarError):
    """The joint noise covariance is numerically singular."""


class GenerationFailed(RedarError):
    """Random system generation exhausted its retry budget."""


class InsufficientData(RedarError):
    """Not enough samples to form a single regression row."""


class OrderMismatch(RedarError):
    """Model and dataset disagree on the lag order."""


class PredictorUnstable(RedarError):
    """The steady-state predictor matrix A - KC is not stable."""


class RhoTooSmall(RedarError):
    """The envelope radius does not enclose the predictor spectrum."""


class InvalidT0(RedarError):
    """The sample-size threshold candidate is below the hard floor."""


class TBelowT0(RedarError):
    """The bound was evaluated below its validity threshold."""


class SchemaError(RedarError):
    """A serialized file does not follow the documented format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericalError(RedarError):
    """A solver could not meet its accuracy contract."""
