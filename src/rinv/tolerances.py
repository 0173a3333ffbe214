"""Central numerical tolerance configuration.

Every comparison slack used across the package lives in one frozen record
so a single knob (the RI_TOLERANCE_SCALE environment variable) can widen
or tighten all of them uniformly for numerical experiments.
"""

import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    # matrix primitives
    symmetry_rtol: float = 1e-12
    shift_gap: float = 1e-12           # x max(|shift|, ||S||_2)
    sm_denominator: float = 1e-12
    # decomposition validation
    identity_defect: float = 1e-8      # x n
    unit_column: float = 1e-8
    frame_generation: float = 1e-10    # x n
    # selection loop
    kernel_threshold: float = 1e-8     # x ||A||_2
    potential_slack: float = 1e-7      # relative
    precondition_slack: float = 1e-7   # relative
    feasibility_retry: float = 1e-9    # relative
    interlacing_slack: float = 1e-9    # absolute
    sm_consistency: float = 1e-8       # relative
    # certificate / oracle
    independence: float = 1e-10        # x max squared selected-vector norm
    oracle_margin: float = 1e-9        # relative
    oracle_tie: float = 1e-12          # relative; equal-value subsets tie lexicographically


def default_tolerances() -> Tolerances:
    """Tolerances scaled by the RI_TOLERANCE_SCALE environment variable."""
    scale = float(os.environ.get("RI_TOLERANCE_SCALE", "1"))
    base = Tolerances()
    if scale == 1.0:
        return base
    return replace(base, **{f.name: getattr(base, f.name) * scale for f in fields(base)})
