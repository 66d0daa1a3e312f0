"""Exception types shared across the package."""


class ScaleboError(Exception):
    """Base class for all scalebo errors."""


class InsufficientData(ScaleboError):
    """Too few observations for the requested operation."""


class RankDeficient(ScaleboError):
    """Design matrix is rank deficient (e.g. all scale values identical)."""


class DegenerateVariance(ScaleboError):
    """Residual variance is zero; the noise posterior collapses."""


class SurrogateOverflow(ScaleboError):
    """Objective evaluation is not representable in float64."""


class EvaluationFailure(ScaleboError):
    """A statistic evaluation raised; carries the iteration context."""

    def __init__(self, message, iteration=None, beta=None):
        super().__init__(message)
        self.iteration = iteration
        self.beta = beta


class NoEligibleGroups(ScaleboError):
    """No residual group meets the minimum per-group size."""


class DegenerateSample(ScaleboError):
    """Sample has zero variance; distribution fits are undefined."""


class ConfigError(ScaleboError):
    """A usage error: a malformed or inconsistent config, argument or input."""
