"""Post-hoc verification of a selected subset.

Everything here is recomputed from the raw inputs; nothing from the
selector's internal state is trusted, save ||L||_2^2 for an L whose bits
equal the last operator scheduled in the process: the schedule keeps that
one value, so a verify after a run on the same L takes no second eigvalsh.
The lambda_min claim is discharged
exactly through the Gram matrix: for all coefficient choices,
|| sum a_i w_i ||^2 >= lambda_min(Gram) * sum a_i^2.
"""

import math
from typing import List, NamedTuple, Sequence

import numpy as np

from .decomposition import Decomposition, checked_arrays, checked_indices, from_standard_basis
from .errors import NormRangeError
from .selector import compute_schedule
from .tolerances import default_tolerances


def gram_min_eigenvalue(vectors: Sequence[np.ndarray]):
    """Smallest eigenvalue of the Gram matrix W W^T of one or more
    equal-length rows: the least eigenvalue of sum_i w_i w_i^T on span{w_i},
    strictly positive iff the rows are linearly independent. A stack of B
    such W, shape (B, t, n), gives the B values as an array. NormRangeError
    if a Gram entry overflows, checked on the Gram alone before eigvalsh."""
    W = np.asarray(vectors, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        G = W @ np.swapaxes(W, -1, -2)
    if not np.isfinite(G).all():
        raise NormRangeError("the Gram matrix W W^T of the selected rows w = L v "
                             "overflows the float range")
    lam = np.linalg.eigvalsh(G)[..., 0]
    return float(lam) if W.ndim == 2 else lam


class Certificate(NamedTuple):
    """Independently recomputed evidence that sigma meets the guarantee.

    sigma is stored 0-based and sorted; lambda_min is +inf for the empty
    subset so vacuous runs compare gracefully. to_json_dict writes both that
    +inf and a delta that overflowed (an epsilon near 0) as null: JSON has
    no Infinity.
    """

    sigma: List[int]
    epsilon: float
    subset_size_bound: int
    lambda_min: float
    guarantee_bound: float
    stable_rank: float
    b0: float
    delta: float
    independent: bool
    passes: bool
    vacuous: bool

    def to_json_dict(self) -> dict:
        return {
            "sigma": [i + 1 for i in self.sigma],
            "epsilon": self.epsilon,
            "t": self.subset_size_bound,
            "lambda_min": None if math.isinf(self.lambda_min) else self.lambda_min,
            "bound": self.guarantee_bound,
            "stable_rank": self.stable_rank,
            "b0": self.b0,
            "delta": self.delta if math.isfinite(self.delta) else None,
            "passes": self.passes,
            "vacuous": self.vacuous,
        }


def verify(dec: Decomposition, epsilon: float, sigma: Sequence[int]) -> Certificate:
    """Certificate for sigma against the size and lambda_min guarantees.

    passes iff |sigma| >= floor(eps^2 * stable_rank), the selected vectors
    are linearly independent, and the Gram lambda_min strictly exceeds
    (1 - eps)^2 ||L||_F^2 / m. Strictness carries no added slack: the
    guarantee holds with margin, so a borderline value signals genuine
    numerical trouble. L and V pass validate's shape and finiteness checks,
    or DimensionError; the frame identity is not checked. t, the bound, b0
    and delta come from compute_schedule, so an all-zero L raises
    ZeroOperatorError and an epsilon outside (0, 1) ParameterError; sigma
    must hold distinct integers in [0, m), or IndexRangeError. A Gram of
    the selected rows that overflows raises NormRangeError.
    """
    tol = default_tolerances()
    L, V = checked_arrays(dec)
    sigma = sorted(checked_indices(sigma, len(V), "sigma").tolist())
    schedule = compute_schedule(L, len(V), epsilon)

    if sigma:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the Gram check
            W = V[sigma] @ L.T
        lam_min = gram_min_eigenvalue(W)
        row_sq = float(np.max(np.sum(W * W, axis=1)))
        independent = lam_min > tol.independence * row_sq
    else:
        lam_min = math.inf
        independent = True

    bound = schedule.guarantee_bound
    passes = len(sigma) >= schedule.steps_t and independent and lam_min > bound
    return Certificate(
        sigma=sigma,
        epsilon=schedule.epsilon,
        subset_size_bound=schedule.steps_t,
        lambda_min=lam_min,
        guarantee_bound=bound,
        stable_rank=schedule.frob_sq / schedule.spec_sq,
        b0=schedule.b0,
        delta=schedule.delta,
        independent=independent,
        passes=passes,
        vacuous=schedule.vacuous,
    )


def verify_classical(L, epsilon: float, sigma: Sequence[int]) -> Certificate:
    """Unit-column certificate: |sigma| >= floor(eps^2 n / ||L||_2^2) and
    lambda_min of the Gram of the selected columns strictly above (1-eps)^2.

    Because the columns have unit norm, ||L||_F^2 = n and both checks
    coincide with the general certificate on the standard-basis system.
    Columns that are not unit-norm raise ColumnNormError, a ModeError.
    """
    return verify(from_standard_basis(L, classical=True), epsilon, sigma)
