"""Exception taxonomy for the dyadic cascade library.

Every failure mode that callers are expected to handle gets its own type.
DomainError, which is also a ValueError, is the bad-input family: argument
values outside an operation's domain raise it or one of its subclasses, and
the CLI answers it with exit 1.  The CLI reports every other CascadeError
as a numerical failure, exit 2.
"""


class CascadeError(Exception):
    """Base class for all library errors."""


class DomainError(CascadeError, ValueError):
    """Arguments outside the domain of the operation: bad input, not a
    failed computation."""


class CapacityExceeded(DomainError):
    """Requested tree exceeds the configured node budget."""


class NonFiniteState(CascadeError):
    """A state vector contains NaN or infinity."""


class NonFiniteResult(CascadeError):
    """A result is NaN or lies beyond the float range, so it cannot be
    reported as a number."""


class StepSizeUnderflow(CascadeError):
    """Adaptive step fell below the representable floor (stiffness beyond the
    explicit method)."""


class MaxRejections(CascadeError):
    """Too many consecutive step rejections."""


class RangeError(CascadeError):
    """Requested time is outside (or not stored in) the trajectory."""


class SymmetryError(DomainError):
    """Tree state is not constant within some generation."""

    def __init__(self, generation, message=None):
        self.generation = generation
        super().__init__(message or f"generation {generation} is not symmetric")


class DepthMismatch(CascadeError):
    """State does not provide enough generations/shells."""


class ParameterMismatch(DomainError):
    """Parameter sets are inconsistent under the classic/tree correspondence."""


class BracketFailure(CascadeError):
    """Shooting bracket behaves inconsistently with the expected monotonicity;
    this falsifies the implementation, not the mathematics."""


class NoConvergence(CascadeError):
    """Iteration budget exhausted before the acceptance condition."""


class DegenerateWindow(DomainError):
    """Spectrum fit window has fewer than two usable generations."""


class ConfigError(DomainError):
    """Invalid run configuration; message carries the offending field path."""


class StateFileError(DomainError):
    """A state file is malformed or does not match the model parameters;
    the message names the file and the cause."""
