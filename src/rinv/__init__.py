"""Deterministic barrier-method subset selection for restricted invertibility.

The internals (the step state, potentials, feasibility tests and matrix
primitives) live in rinv.selector and rinv.matrix_core.
"""

from .certificate import Certificate, verify, verify_classical
from .decomposition import (
    Decomposition,
    Mode,
    from_standard_basis,
    permuted,
    random_tight_frame,
    validate,
)
from .oracle import compare_to_guarantee, exhaustive_best_subset
from .selector import SelectionResult, compute_schedule, run_selection
from .tolerances import Tolerances, default_tolerances

__all__ = [
    "Certificate",
    "Decomposition",
    "Mode",
    "SelectionResult",
    "Tolerances",
    "compare_to_guarantee",
    "compute_schedule",
    "default_tolerances",
    "exhaustive_best_subset",
    "from_standard_basis",
    "permuted",
    "random_tight_frame",
    "run_selection",
    "validate",
    "verify",
    "verify_classical",
]
