"""Exception hierarchy shared across the package.

Invalid arguments raise plain ValueError; everything below marks a failure
mode that callers (and the CLI exit-code mapping) treat distinctly.
"""


class ThermemError(Exception):
    """Base class for package-specific failures."""


class ConfigurationError(ThermemError):
    """A scheme, constraint, or experiment config does not cover the model."""


class StabilityError(ThermemError):
    """Parameter/time-step combination violates the explicit-scheme bound."""


class ConvergenceError(ThermemError):
    """An iterative solver failed to reach its residual tolerance."""


class NumericalError(ThermemError):
    """Singular or indefinite matrix encountered where a solve is required."""


class DivergenceError(NumericalError):
    """A simulated or filtered trajectory produced non-finite values."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"non-finite values first encountered at step {step}")


class IdentifiabilityError(ThermemError):
    """The M-step normal matrix is singular or too badly conditioned to trust."""

    def __init__(self, message, null_indices=()):
        self.null_indices = tuple(null_indices)
        super().__init__(message)
