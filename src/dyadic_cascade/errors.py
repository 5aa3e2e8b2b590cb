"""Exception taxonomy for the dyadic cascade library.

Every failure mode that callers are expected to handle gets its own type;
generic ValueError is reserved for plain argument misuse.
"""


class CascadeError(Exception):
    """Base class for all library errors."""


class CapacityExceeded(CascadeError):
    """Requested tree exceeds the configured node budget."""


class RootHasNoParent(CascadeError):
    """parent() called on the root; its symbolic parent is the forcing alias."""


class NonFiniteState(CascadeError):
    """A state vector contains NaN or infinity."""


class StepSizeUnderflow(CascadeError):
    """Adaptive step fell below the representable floor (stiffness beyond the
    explicit method)."""


class MaxRejections(CascadeError):
    """Too many consecutive step rejections."""


class ForcedRun(CascadeError):
    """Operation requires an unforced (f = 0) trajectory."""


class RangeError(CascadeError):
    """Requested time is outside (or not stored in) the trajectory."""


class DomainError(CascadeError):
    """Parameters outside the mathematical domain of the operation."""


class SymmetryError(CascadeError):
    """Tree state is not constant within some generation."""

    def __init__(self, generation, message=None):
        self.generation = generation
        super().__init__(message or f"generation {generation} is not symmetric")


class DepthMismatch(CascadeError):
    """State does not provide enough generations/shells."""


class ParameterMismatch(CascadeError):
    """Parameter sets are inconsistent under the classic/tree correspondence."""


class BracketFailure(CascadeError):
    """Shooting bracket behaves inconsistently with the expected monotonicity;
    this falsifies the implementation, not the mathematics."""


class NoConvergence(CascadeError):
    """Iteration budget exhausted before the acceptance condition."""


class OverlapError(CascadeError):
    """Grafted subtrees overlap."""


class GenerationMismatch(CascadeError):
    """Graft target generation is incompatible with the profile's first
    nonzero generation."""


class PoleMismatch(CascadeError):
    """Grafts with different pole times combined in one state."""


class DegenerateWindow(CascadeError):
    """Spectrum fit window has fewer than two usable generations."""


class ConfigError(CascadeError):
    """Invalid run configuration; message carries the offending field path."""


class StateFileError(CascadeError, ValueError):
    """A state file is malformed or does not match the model parameters;
    the message names the file and the cause."""
