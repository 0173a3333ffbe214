"""Exception hierarchy for the rinv package."""


class RinvError(Exception):
    """Base class for all rinv errors. traces is None, or, for one raised by a
    step of run_selection, the StepTraces of the steps completed before it."""

    traces = None


class ParameterError(RinvError):
    """A scalar parameter is outside its allowed range."""


class DimensionError(RinvError):
    """Matrix/vector shapes are inconsistent or a non-square input was given."""


class SingularShiftError(RinvError):
    """The requested shift coincides with an eigenvalue of the matrix."""


class ZeroOperatorError(RinvError):
    """An all-zero operator was given where a nonzero one is required."""


class NormRangeError(RinvError):
    """||L||_F^2 is outside the float range the barrier walk can compute in."""


class DecompositionError(RinvError):
    """The vector system fails the resolution-of-identity check."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class ModeError(RinvError):
    """Input does not satisfy the requested validation mode."""


class ColumnNormError(ModeError):
    """A column fails the unit-norm requirement of classical mode."""

    def __init__(self, message, worst_index=None):
        super().__init__(message)
        self.worst_index = worst_index


class InfeasibleFrameError(RinvError):
    """A tight frame with m < n vectors cannot exist."""


class IndexRangeError(RinvError):
    """Subset indices are out of range or repeated."""


class SubsetTooLargeError(RinvError):
    """Exhaustive enumeration would exceed the combinatorial guard."""


class InfeasibilityError(RinvError):
    """No candidate vector passed both feasibility tests exactly at the current step.

    Cannot occur in exact arithmetic while the step's preconditions hold;
    carries the best margins found so a failure can be diagnosed.
    """

    def __init__(self, message, best_quadform_margin=None, best_potential_margin=None):
        super().__init__(message)
        self.best_quadform_margin = best_quadform_margin
        self.best_potential_margin = best_potential_margin


class CertificateFormatError(RinvError):
    """A stored certificate is not a JSON object with a valid epsilon and sigma."""


class InvariantViolation(RinvError):
    """A runtime invariant of the selection process failed."""
