"""Brute-force ground truth for small instances.

Exhaustive enumeration of all size-t subsets, maximizing the Gram
lambda_min. Independent of the selector by construction; used to sandwich
the algorithm's value between the theoretical bound and the optimum.
"""

import itertools
import math
from typing import List, NamedTuple, Tuple

import numpy as np

from .decomposition import Decomposition, checked_arrays
from .errors import InvariantViolation, ParameterError, SubsetTooLargeError
from .tolerances import default_tolerances

ENUMERATION_GUARD = 10**6
_BATCH = 4096  # subsets whose Gram matrices are decomposed in one call


def _batches(m: int, t: int):
    """The size-t subsets of range(m) in lexicographic order, as (B, t) index
    arrays of up to _BATCH rows each, read from one flat stream of indices."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), t))
    while True:
        idx = np.fromiter(itertools.islice(flat, _BATCH * t), dtype=int).reshape(-1, t)
        if not len(idx):
            return
        yield idx


def exhaustive_best_subset(dec: Decomposition, t: int) -> Tuple[List[int], float]:
    """Best size-t subset by Gram lambda_min, ties broken lexicographically.

    Values within a tiny relative tolerance count as ties, so symmetric
    instances resolve to the lexicographically first optimum despite
    last-ulp noise. t = 0 returns ([], inf): the empty subset vacuously
    satisfies any lower bound, so its value is a +inf sentinel.
    Enumeration order is lexicographic and the merge keeps the earliest
    maximizer, so the result is independent of _BATCH. L and V pass
    validate's shape and finiteness checks, or DimensionError; ParameterError
    unless t is an integer (not a bool) in [0, m].
    """
    tol = default_tolerances()
    L, V = checked_arrays(dec)
    m = len(V)
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t <= m:
        raise ParameterError(f"t must be an integer in [0, {m}], got {t!r}")
    if t == 0:
        return [], math.inf
    count = math.comb(m, t)
    if count > ENUMERATION_GUARD:
        raise SubsetTooLargeError(
            f"C({m},{t}) = {count} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    W = V @ L.T
    best_val = -math.inf
    best_sigma: List[int] = []
    for idx in _batches(m, t):
        sub = W[idx]                               # (B, t, n)
        grams = sub @ sub.transpose(0, 2, 1)       # (B, t, t)
        vals = np.linalg.eigvalsh(grams)[:, 0]
        vmax = float(vals.max())
        tie_band = tol.oracle_tie * max(1.0, abs(vmax))
        pos = int(np.nonzero(vals >= vmax - tie_band)[0][0])  # earliest near-max
        improved = best_sigma == [] or (
            vals[pos] > best_val + tol.oracle_tie * max(1.0, abs(best_val))
        )
        if improved:
            best_val = float(vals[pos])
            best_sigma = idx[pos].tolist()
    return best_sigma, best_val


class GuaranteeReport(NamedTuple):
    sigma: List[int]
    oracle_sigma: List[int]
    algo_lambda: float
    oracle_lambda: float
    bound: float
    steps_t: int
    vacuous: bool

    def to_json_dict(self) -> dict:
        return {
            "sigma": [i + 1 for i in self.sigma],
            "oracle_sigma": [i + 1 for i in self.oracle_sigma],
            "algo_lambda": None if math.isinf(self.algo_lambda) else self.algo_lambda,
            "oracle_lambda": None if math.isinf(self.oracle_lambda) else self.oracle_lambda,
            "bound": self.bound,
            "t": self.steps_t,
            "vacuous": self.vacuous,
        }


def compare_to_guarantee(
    dec: Decomposition, epsilon: float, pivot_rule: str = "first"
) -> GuaranteeReport:
    """Run the selector and sandwich its value: bound < algo <= oracle.

    Raises InvariantViolation if the chain fails (beyond a small relative
    margin on the oracle side for the shared floating-point noise).
    """
    from .certificate import verify
    from .selector import run_selection

    result = run_selection(dec, epsilon, pivot_rule=pivot_rule)
    cert = verify(dec, epsilon, result.sigma)
    oracle_sigma, oracle_lambda = exhaustive_best_subset(dec, len(result.sigma))
    report = GuaranteeReport(
        sigma=cert.sigma,
        oracle_sigma=oracle_sigma,
        algo_lambda=cert.lambda_min,
        oracle_lambda=oracle_lambda,
        bound=cert.guarantee_bound,
        steps_t=result.schedule.steps_t,
        vacuous=result.vacuous,
    )
    if result.vacuous:
        return report
    if not (report.bound < report.algo_lambda):
        raise InvariantViolation(
            f"algorithm value {report.algo_lambda} not above bound {report.bound}"
        )
    if not (report.algo_lambda <= report.oracle_lambda * (1.0 + default_tolerances().oracle_margin)):
        raise InvariantViolation(
            f"algorithm value {report.algo_lambda} exceeds oracle optimum "
            f"{report.oracle_lambda}"
        )
    return report
