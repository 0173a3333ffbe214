"""Dense real symmetric linear algebra primitives.

All operations are pure functions of their inputs, work in float64, and
are backed by LAPACK via numpy. Contracts are tolerance-based (see
tolerances.py); the solver choice is an implementation detail.
"""

from typing import Sequence

import numpy as np

from .errors import DimensionError, InvariantViolation, SingularShiftError
from .tolerances import Tolerances, default_tolerances


def shifted_spectrum(lam, shift: float, tol: Tolerances) -> np.ndarray:
    """Eigenvalues 1 / (lam - shift) of (S - shift*I)^{-1}, given those of S
    sorted, ascending (eigh) or descending (the walk's poles).

    Raises SingularShiftError when the shift is within shift_gap * max(|shift|, ||S||)
    of an eigenvalue of S, with ||S|| read from the two ends of lam.
    """
    lam = np.asarray(lam, dtype=float)
    diff = lam - shift
    scale = max(abs(shift), abs(float(lam[0])), abs(float(lam[-1]))) if len(lam) else abs(shift)
    gap = float(np.abs(diff).min(initial=np.inf))
    if gap <= tol.shift_gap * scale:
        raise SingularShiftError(
            f"shift {shift} is within {gap:.3e} of an eigenvalue"
        )
    return 1.0 / diff


def shifted_inverse(S, shift: float) -> np.ndarray:
    """Inverse of S - shift*I for a symmetric S, computed spectrally from
    one eigh, which reads S's lower triangle.

    Raises SingularShiftError when the shift sits on an eigenvalue of S.
    """
    lam, U = np.linalg.eigh(S)
    return (U * shifted_spectrum(lam, shift, default_tolerances())) @ U.T


def gram_min_eigenvalue(vectors: Sequence[np.ndarray]) -> float:
    """Smallest eigenvalue of the Gram matrix of the given vectors.

    Equals the smallest eigenvalue of sum_i w_i w_i^T restricted to
    span{w_i}; strictly positive iff the set is linearly independent. The
    vectors are one or more equal-length rows.
    """
    W = np.asarray(vectors, dtype=float)
    G = W @ W.T
    return float(np.linalg.eigvalsh(G)[0])


def check_interlacing(evals_before, evals_after, slack: float) -> None:
    """Assert the eigenvalues of A + w w^T interlace those of A.

    Both inputs are full spectra sorted descending. A rank-one PSD update
    forces l'_1 >= l_1 >= l'_2 >= l_2 >= ... >= l'_n >= l_n; checked
    within slack times the largest |eigenvalue| of either spectrum, read
    from their ends.
    """
    a = np.asarray(evals_before, dtype=float)
    b = np.asarray(evals_after, dtype=float)
    if a.shape != b.shape:
        raise DimensionError("spectra must have equal length")
    slack = slack * float(max(abs(a[0]), abs(a[-1]), abs(b[0]), abs(b[-1]))) if a.size else 0.0
    if (b < a - slack).any():
        worst = float((a - b).max())
        raise InvariantViolation(f"interlacing violated: new eigenvalue below old by {worst:.3e}")
    if (a[:-1] < b[1:] - slack).any():
        worst = float((b[1:] - a[:-1]).max())
        raise InvariantViolation(f"interlacing violated: shifted eigenvalue above old by {worst:.3e}")
