"""Exception types shared across the package.

Validation problems (bad parameters, bad grids, empty windows) derive from
``ValueError``; runtime failures of the numerical machinery derive from
``NumericalError``, a ``RuntimeError``, so callers can map the two onto
distinct exit codes without naming each failure.
"""


class ParameterError(ValueError):
    """A model or solver parameter violates its admissible range."""


class GridError(ValueError):
    """Invalid grid dimensions."""


class EmptyWindowError(ParameterError):
    """The admissible weight window is empty (speed at or below critical)."""


class SubcriticalSpeedError(ParameterError):
    """A solver requiring c >= 2*sqrt(alpha) was called with a smaller speed."""


class DegenerateWeightError(ValueError):
    """sigma2 = c/2: the corresponding spectral curve degenerates to a vertical line."""


class NormError(ValueError):
    """A norm sequence is nonpositive where a log-fit requires positivity."""


class NumericalError(RuntimeError):
    """The numerical machinery failed on a valid configuration."""


class ConvergenceError(NumericalError):
    """An iterative solver failed to reach its tolerance."""


class EnvelopeViolationError(NumericalError):
    """A monotone-iteration iterate left the [lower, upper] envelope."""


class VerificationError(NumericalError):
    """A differential-inequality check failed; carries the worst node."""

    def __init__(self, message, *, xi, component, margin):
        super().__init__(message)
        self.xi = xi
        self.component = component
        self.margin = margin


class ShiftNotFoundError(NumericalError):
    """No admissible ordering shift exists within the truncated domain."""


class LevelNotCrossedError(ConvergenceError):
    """Phase pinning or normalization found no upward level crossing."""


class FitWindowError(NumericalError):
    """Too few usable samples remain in a decay-fit window."""


class BlowUpError(NumericalError):
    """A simulated field exceeded the blow-up guard threshold."""


class FrontNotFoundError(NumericalError):
    """Front tracking lost the level set (absent or exited the domain)."""
