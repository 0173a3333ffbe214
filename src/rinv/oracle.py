"""Brute-force ground truth for small instances.

Exhaustive enumeration of all size-t subsets, maximizing the Gram
lambda_min. Independent of the selector by construction; used to sandwich
the algorithm's value between the theoretical bound and the optimum.
"""

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .decomposition import Decomposition
from .errors import InvariantViolation, SubsetTooLargeError
from .tolerances import Tolerances, default_tolerances

ENUMERATION_GUARD = 10**6
_BATCH = 4096  # subsets whose Gram matrices are decomposed in one call


def exhaustive_best_subset(
    dec: Decomposition, t: int, tol: Tolerances | None = None
) -> Tuple[List[int], float]:
    """Best size-t subset by Gram lambda_min, ties broken lexicographically.

    Values within a tiny relative tolerance count as ties, so symmetric
    instances resolve to the lexicographically first optimum despite
    last-ulp noise. t = 0 returns ([], inf): the empty subset vacuously
    satisfies any lower bound, so its value is a +inf sentinel.
    Enumeration order is lexicographic and the merge keeps the earliest
    maximizer, so the result is independent of _BATCH.
    """
    tol = tol or default_tolerances()
    m = dec.m
    if t == 0:
        return [], math.inf
    count = math.comb(m, t)
    if count > ENUMERATION_GUARD:
        raise SubsetTooLargeError(
            f"C({m},{t}) = {count} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    W = dec.mapped_vectors()
    best_val = -math.inf
    best_sigma: List[int] = []
    combos = itertools.combinations(range(m), t)
    while True:
        chunk = list(itertools.islice(combos, _BATCH))
        if not chunk:
            break
        idx = np.array(chunk, dtype=int)
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
            best_sigma = list(chunk[pos])
    return best_sigma, best_val


@dataclass(frozen=True)
class GuaranteeReport:
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
    dec: Decomposition,
    epsilon: float,
    pivot_rule: str = "first",
    tol: Tolerances | None = None,
) -> GuaranteeReport:
    """Run the selector and sandwich its value: bound < algo <= oracle.

    Raises InvariantViolation if the chain fails (beyond a small relative
    margin on the oracle side for the shared floating-point noise).
    """
    from .certificate import verify
    from .selector import run_selection

    tol = tol or default_tolerances()
    result = run_selection(dec, epsilon, pivot_rule=pivot_rule, tol=tol)
    cert = verify(dec, epsilon, result.sigma, tol)
    oracle_sigma, oracle_lambda = exhaustive_best_subset(dec, len(result.sigma), tol)
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
    if not (report.algo_lambda <= report.oracle_lambda * (1.0 + tol.oracle_margin)):
        raise InvariantViolation(
            f"algorithm value {report.algo_lambda} exceeds oracle optimum "
            f"{report.oracle_lambda}"
        )
    return report
