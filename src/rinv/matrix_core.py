"""Dense real symmetric linear algebra primitives.

All operations are pure functions of their inputs, work in float64, and
are backed by LAPACK via numpy. Contracts are tolerance-based (see
tolerances.py); the solver choice is an implementation detail.
"""

from typing import Sequence

import numpy as np

from .errors import (
    DimensionError,
    EmptySetError,
    InvariantViolation,
    SingularShiftError,
    SingularUpdateError,
    SymmetryError,
)
from .tolerances import Tolerances, default_tolerances


def _as_square(S, name="matrix"):
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise DimensionError(f"{name} contains non-finite entries")
    return S


def _require_symmetric(S, rtol, name="matrix"):
    scale = float(np.abs(S).max(initial=0.0))
    asym = float(np.abs(S - S.T).max(initial=0.0))
    if asym > rtol * scale:
        raise SymmetryError(
            f"{name} is not symmetric: relative asymmetry {asym / scale:.3e}"
        )


def sym_eigendecomposition(S, tol: Tolerances | None = None):
    """(lam, U) of a symmetric matrix: eigenvalues descending, column U[:, i]
    the orthonormal eigenvector of lam[i]."""
    tol = tol or default_tolerances()
    S = _as_square(S)
    _require_symmetric(S, tol.symmetry_rtol)
    lam, U = np.linalg.eigh(S)
    return lam[::-1].copy(), U[:, ::-1].copy()


def shifted_spectrum(lam, shift: float, tol: Tolerances | None = None) -> np.ndarray:
    """Eigenvalues 1 / (lam - shift) of (S - shift*I)^{-1}, given those of S.

    Raises SingularShiftError when the shift is within shift_gap * max(|shift|, ||S||)
    of an eigenvalue of S.
    """
    tol = tol or default_tolerances()
    lam = np.asarray(lam, dtype=float)
    diff = lam - shift
    scale = max(abs(shift), float(np.abs(lam).max(initial=0.0)))
    gap = float(np.abs(diff).min())
    if gap <= tol.shift_gap * scale:
        raise SingularShiftError(
            f"shift {shift} is within {gap:.3e} of an eigenvalue"
        )
    return 1.0 / diff


def shifted_inverse(S, shift: float, tol: Tolerances | None = None) -> np.ndarray:
    """Inverse of S - shift*I, computed spectrally.

    Raises SingularShiftError when the shift sits on an eigenvalue of S.
    """
    lam, U = sym_eigendecomposition(S, tol)
    return (U * shifted_spectrum(lam, shift, tol)) @ U.T


def sherman_morrison_inverse(M_inv, w, tol: Tolerances | None = None) -> np.ndarray:
    """Inverse after a rank-one update: (M + w w^T)^-1 given M^-1.

    Uses M_inv - (M_inv w w^T M_inv) / (1 + w^T M_inv w).
    """
    tol = tol or default_tolerances()
    M_inv = _as_square(M_inv, "M_inv")
    w = np.asarray(w, dtype=float)
    if w.shape != (M_inv.shape[0],):
        raise DimensionError(f"vector shape {w.shape} incompatible with {M_inv.shape}")
    u = M_inv @ w
    denom = 1.0 + float(w @ u)
    if abs(denom) <= tol.sm_denominator:
        raise SingularUpdateError(f"update denominator {denom:.3e} too close to zero")
    return M_inv - np.outer(u, u) / denom


def frobenius_norm_sq(L) -> float:
    """Squared Frobenius norm, sum of squared entries."""
    L = np.asarray(L, dtype=float)
    return float(np.sum(L * L))


def gram_min_eigenvalue(vectors: Sequence[np.ndarray]) -> float:
    """Smallest eigenvalue of the Gram matrix of the given vectors.

    Equals the smallest eigenvalue of sum_i w_i w_i^T restricted to
    span{w_i}; strictly positive iff the set is linearly independent.
    """
    W = np.asarray(vectors, dtype=float)
    if W.ndim != 2 or W.shape[0] == 0:
        raise EmptySetError("need a nonempty list of equal-length vectors")
    G = W @ W.T
    return float(np.linalg.eigvalsh(G)[0])


def check_interlacing(evals_before, evals_after, slack: float) -> None:
    """Assert the eigenvalues of A + w w^T interlace those of A.

    Both inputs are full spectra sorted descending. A rank-one PSD update
    forces l'_1 >= l_1 >= l'_2 >= l_2 >= ... >= l'_n >= l_n; checked
    within slack times the largest |eigenvalue| of either spectrum.
    """
    a = np.asarray(evals_before, dtype=float)
    b = np.asarray(evals_after, dtype=float)
    if a.shape != b.shape:
        raise DimensionError("spectra must have equal length")
    slack = slack * float(np.abs(np.concatenate([a, b])).max(initial=0.0))
    if (b < a - slack).any():
        worst = float((a - b).max())
        raise InvariantViolation(f"interlacing violated: new eigenvalue below old by {worst:.3e}")
    if (a[:-1] < b[1:] - slack).any():
        worst = float((b[1:] - a[:-1]).max())
        raise InvariantViolation(f"interlacing violated: shifted eigenvalue above old by {worst:.3e}")
