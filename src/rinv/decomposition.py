"""Input model: an operator L together with vectors {v_i} summing to the identity.

Two validation modes are supported: Frame (sum of outer products equals I)
and ClassicalColumns (v_i are the standard basis and L has unit-norm
columns). Frame generation uses numpy's default PCG64 generator so
instances are reproducible from a 64-bit seed.
"""

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    ColumnNormError,
    DecompositionError,
    DimensionError,
    IndexRangeError,
    InfeasibleFrameError,
    ModeError,
    ParameterError,
)
from .tolerances import default_tolerances


class Mode(str, Enum):
    FRAME = "frame"
    CLASSICAL_COLUMNS = "columns"


class Decomposition(NamedTuple):
    """Operator L (n x n) and m vectors in R^n, stored as rows of V."""

    L: np.ndarray
    V: np.ndarray
    mode: Mode = Mode.FRAME

    @property
    def n(self) -> int:
        return np.shape(self.L)[0]

    @property
    def m(self) -> int:
        return np.shape(self.V)[0]


def _real_array(X, name: str) -> np.ndarray:
    """X as a float array; DimensionError if it is complex, text, objects or ragged."""
    try:
        X = np.asarray(X)
    except ValueError:  # ragged nesting
        X = np.empty(0, dtype=object)
    if X.dtype.kind not in "biuf":
        raise DimensionError(f"{name} must be a rectangular array of real numbers")
    return X.astype(float, copy=False)


def square_operator(L) -> np.ndarray:
    """L as a float array; DimensionError unless it is a square 2-D real array."""
    L = _real_array(L, "L")
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionError(f"L must be square (got {L.shape}); zero-pad rectangular inputs first")
    return L


def checked_arrays(dec: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """(L, V) as float arrays; DimensionError unless both are arrays of real
    numbers, L is square, V's rows live in R^n and every entry is finite."""
    L, V = square_operator(dec.L), _real_array(dec.V, "V")
    if V.ndim != 2 or V.shape[1] != L.shape[0]:
        raise DimensionError(
            f"V rows must live in R^{L.shape[0]}, got V shape {V.shape}"
        )
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(V))):
        raise DimensionError("inputs contain non-finite entries")
    return L, V


def validate(dec: Decomposition) -> Decomposition:
    """Check the mode's invariant and return the decomposition unchanged.

    Frame mode: || sum_i v_i v_i^T - I ||_F <= identity_defect * n.
    Classical mode: V is exactly the standard basis and L has unit-norm
    columns. ModeError unless dec.mode is a Mode.
    """
    tol = default_tolerances()
    if not isinstance(dec.mode, Mode):
        raise ModeError(f"mode must be a Mode, got {dec.mode!r}")
    L, V = checked_arrays(dec)
    n = L.shape[0]
    if dec.mode == Mode.CLASSICAL_COLUMNS:
        if V.shape[0] != n or not np.array_equal(V, np.eye(n)):
            raise ColumnNormError("classical mode requires V to be the standard basis")
        with np.errstate(over="ignore"):  # a norm that overflows is inf, and fails
            norms = np.linalg.norm(L, axis=0)
        off = np.abs(norms - 1.0)
        if n and off.max() > tol.unit_column:  # a 0 x 0 L has no column to fail
            worst = int(np.argmax(off))
            raise ColumnNormError(
                f"column {worst + 1} has norm {norms[worst]:.12g}, expected 1",
                worst_index=worst,
            )
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf or NaN, and fails
            defect = float(np.linalg.norm(V.T @ V - np.eye(n)))  # V^T V = sum_i v_i v_i^T
        if not defect <= tol.identity_defect * n:
            raise DecompositionError(
                f"sum of outer products deviates from identity: defect {defect:.3e}",
                defect=defect,
            )
    return dec


def from_standard_basis(L, classical: bool = False) -> Decomposition:
    """Decomposition with V the standard basis of R^n.

    With classical=True the unit-column requirement on L is enforced; an L
    that is not a square array of real numbers raises DimensionError.
    """
    L = square_operator(L)
    mode = Mode.CLASSICAL_COLUMNS if classical else Mode.FRAME
    return validate(Decomposition(L=L, V=np.eye(len(L)), mode=mode))


def random_tight_frame(n: int, m: int, seed: int) -> np.ndarray:
    """m vectors in R^n with sum_i v_i v_i^T = I, returned as rows.

    Construction: orthonormalize the columns of an m x n matrix of standard
    normal draws (PCG64 seeded by `seed`) and take the rows. Deterministic
    for a given seed. ParameterError unless n, m and seed are integers >= 0.
    """
    for name, value in (("n", n), ("m", m), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
    if m < n:
        raise InfeasibleFrameError(f"a tight frame needs m >= n (got m={m}, n={n})")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n))
    Q, _ = np.linalg.qr(G)
    defect = float(np.linalg.norm(Q.T @ Q - np.eye(n)))
    if defect > default_tolerances().frame_generation * n:
        raise DecompositionError(
            f"generated frame defect {defect:.3e} exceeds tolerance", defect=defect
        )
    return Q


def checked_indices(indices, m: int, name: str) -> np.ndarray:
    """indices as a 1-D integer array; IndexRangeError unless it holds
    distinct integers in [0, m). Bool, float, str and object entries are
    rejected, not cast; an empty list is allowed. Repeats are equal
    neighbours after a sort: np.unique would import numpy.ma, which no rinv
    command otherwise loads."""
    try:
        idx = np.asarray(indices)
    except ValueError:  # ragged nesting
        idx = np.empty((0, 0))
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise IndexRangeError(f"{name} must be a sequence of integer indices")
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise IndexRangeError(f"{name} indices must lie in [0, {m})")
    if (np.diff(np.sort(idx)) == 0).any():
        raise IndexRangeError(f"{name} contains repeated indices")
    return idx.astype(int, copy=False)


def permuted(dec: Decomposition, perm) -> Decomposition:
    """Decomposition with rows of V reordered: new row j is old row perm[j].
    IndexRangeError for a bad or repeated entry, DimensionError for a length other than m."""
    perm = checked_indices(perm, dec.m, "perm")
    if len(perm) != dec.m:
        raise DimensionError(f"perm must have m = {dec.m} entries, got {len(perm)}")
    return dec._replace(V=np.asarray(dec.V)[perm])
