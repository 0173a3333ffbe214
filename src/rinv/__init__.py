"""Deterministic barrier-method subset selection for restricted invertibility.

The internals (the step state, potentials, feasibility tests and matrix
primitives) live in rinv.selector, and gram_min_eigenvalue in
rinv.certificate. The oracle's two names are imported from rinv.oracle on
first use (PEP 562), so only `rinv oracle` loads it.
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


def __getattr__(name):
    if name in ("compare_to_guarantee", "exhaustive_best_subset"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
