"""Central numerical tolerance configuration.

Every comparison slack used across the package lives in one frozen record.
The RI_TOLERANCE_SCALE environment variable is the only way to set them: it
widens or tightens all of them uniformly for numerical experiments. No
public function takes a tolerance argument: Tolerances and
default_tolerances() report the slacks, and inside the walk they travel on
the Spectrum that run_selection builds from default_tolerances().
"""

import math
import os
from typing import NamedTuple

from .errors import ParameterError


class Tolerances(NamedTuple):
    # matrix primitives
    shift_gap: float = 1e-12           # x max(|shift|, ||S||_2)
    # decomposition validation
    identity_defect: float = 1e-8      # x n
    unit_column: float = 1e-8
    frame_generation: float = 1e-10    # x n
    # selection loop; the scan's two feasibility tests take no slack: a step
    # where no candidate passes both exactly raises InfeasibilityError with
    # the best margins
    kernel_threshold: float = 1e-8     # x ||A||_2
    precondition_slack: float = 1e-7   # relative
    interlacing_slack: float = 1e-9    # x ||A + w w^T||_2
    sm_consistency: float = 1e-8       # relative
    # certificate / oracle
    independence: float = 1e-10        # x max squared selected-vector norm
    oracle_margin: float = 1e-9        # relative
    oracle_tie: float = 1e-12          # relative; equal-value subsets tie lexicographically


def default_tolerances() -> Tolerances:
    """Tolerances scaled by the RI_TOLERANCE_SCALE environment variable, a
    finite number above 0; ParameterError otherwise."""
    text = os.environ.get("RI_TOLERANCE_SCALE", "1")
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not 0.0 < scale < math.inf:
        raise ParameterError(f"RI_TOLERANCE_SCALE must be a finite number above 0, got {text!r}")
    base = Tolerances()
    if scale == 1.0:
        return base
    return base._replace(**{name: getattr(base, name) * scale for name in base._fields})
