"""Barrier-driven subset selection.

The selector grows A = sum_{i in sigma} (L v_i)(L v_i)^T one rank-one
update at a time while sliding a barrier b downward by a fixed delta per
step. The potential tr(L^T (A - bI)^{-1} L) never increases; every nonzero
eigenvalue of A stays above the barrier, which at the end sits above
(1 - eps)^2 ||L||_F^2 / m.

A has rank k <= t after k steps. The walk works in Gram space: a
candidate's row of V L^T L and its Gram entries are formed the first time
the scan reads it, in index order, so first-feasible forms about t rows where
greedy forms all m. A step's Spectrum holds the k nonzero eigenpairs of A,
from an eigh of the k x k Gram of the chosen rows L v_i, plus an implicit
zero block on the other n - k directions, and every potential, candidate
test, diagnostic and trace value is read from k x k matrices and the Gram
rows of the chosen indices, kept in the order they were chosen. The
spectrum of the k + 1 rows taken after the step is the next step's;
potential and potential_split are references from one eigh of a dense A.
"""

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .decomposition import Decomposition, checked_indices, square_operator, validate
from .errors import (
    InfeasibilityError,
    InvariantViolation,
    NormRangeError,
    ParameterError,
    ZeroOperatorError,
)
from .matrix_core import (
    check_interlacing,
    frobenius_norm_sq,
    shifted_inverse,
    shifted_spectrum,
    sym_eigendecomposition,
)
from .tolerances import Tolerances, default_tolerances

PIVOT_FIRST = "first"
PIVOT_GREEDY = "greedy"
# The walk forms Grams up to the third power of L^T L (J), so ||L||_F^2 must
# lie where its cube is a normal float.
FROB_SQ_RANGE = (np.finfo(float).tiny ** (1 / 3), np.finfo(float).max ** (1 / 3))
# ||L||_2^2 of the last L scheduled, as (a read-only C-ordered copy of L,
# spec_sq): a verify after a run on the same L takes no second eigvalsh.
_last_spec_sq: Optional[tuple] = None


@dataclass(frozen=True)
class Schedule:
    """Barrier walk parameters: start b0, per-step drop delta, step count."""

    epsilon: float
    b0: float
    delta: float
    steps_t: int
    m: int
    frob_sq: float
    spec_sq: float

    @property
    def guarantee_bound(self) -> float:
        """(1 - eps)^2 ||L||_F^2 / m, the promised lower bound on lambda_min."""
        return (1.0 - self.epsilon) ** 2 * self.frob_sq / self.m

    @property
    def vacuous(self) -> bool:
        return self.steps_t == 0


class AtShift(NamedTuple):
    """The potential and its image/kernel split at one shift of A."""

    d: np.ndarray  # 1 / (lam - shift), (A - shift I)^{-1} on the explicit eigenpairs
    d0: float  # -1 / shift, (A - shift I)^{-1} on the implicit zero block (0 if it is empty)
    phi: float
    phi_image: float
    phi_kernel: float  # -kernel_mass / shift
    kernel_mass: float  # ||L^T Q||_F^2, Q the projection on the kernel band of A


def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The dot products of matching rows, with no temporary of their shape:
    g and h, from rows of length n."""
    return np.einsum("ij,ij->i", X, Y)


def _col_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The dot products of matching columns, with no temporary of their
    shape: the scan's tests, from k x B blocks."""
    return np.einsum("ij,ij->j", X, Y)


def _band_edge(lam: np.ndarray, tol: Tolerances) -> float:
    """kernel_threshold * ||A||, with ||A|| read from the two ends of the
    sorted eigenvalues lam: an eigenvalue at or below it is in the kernel band."""
    top = max(abs(float(lam[0])), abs(float(lam[-1]))) if len(lam) else 0.0
    return tol.kernel_threshold * top


@dataclass
class Grams:
    """The candidates w = L v seen through LtL = L^T L, in index order and in
    the order the walk chooses them.

    Row p belongs to the candidate p and is filled on first read, up to the
    high-water mark reach: VG[p] = V[p] LtL, g[p] = ||w||^2 and h[p] =
    ||L^T w||^2. G and H are k-major: for c = cols[j], the j-th chosen
    index, CV[j] = VG[c], G[j, p] = V[p] VG[c]^T and H[j, p] = VG[p]
    VG[c]^T, entries of the Grams W W^T (rows w) and VG VG^T. The k x k
    blocks Gss = G[:, cols], Hss = H[:, cols] and J = CV LtL CV^T are
    bordered once per chosen index.
    read(e) fills columns [reach, e) of every chosen row and append the new
    row on columns [0, reach), up to `capacity` rows, so each entry is
    computed once and every block a step reads is a view.
    """

    V: np.ndarray
    LtL: np.ndarray
    VG: np.ndarray
    g: np.ndarray
    h: np.ndarray
    tr_ltl: float
    ltl_sq: float
    G: np.ndarray
    H: np.ndarray
    CV: np.ndarray
    Gss: np.ndarray
    Hss: np.ndarray
    J: np.ndarray
    cols: List[int] = field(default_factory=list)
    reach: int = 0

    @classmethod
    def of(cls, dec: Decomposition, sigma: Sequence[int] = (), capacity: int = 0,
           LtL: Optional[np.ndarray] = None) -> "Grams":
        """The Grams of dec with sigma's columns filled; LtL, if given, is L^T L."""
        V, L = np.asarray(dec.V, dtype=float), np.asarray(dec.L, dtype=float)
        m, n = V.shape
        LtL = L.T @ L if LtL is None else LtL
        cap = max(capacity, len(sigma))
        grams = cls(V, LtL, np.empty((m, n)), np.empty(m), np.empty(m),
                    float(np.trace(LtL)), float(np.sum(LtL * LtL)),
                    np.empty((cap, m)), np.empty((cap, m)), np.empty((cap, n)),
                    *(np.empty((cap, cap)) for _ in range(3)))
        for i in sigma:
            grams.read(i + 1)
            grams.append(i)
        return grams

    def read(self, end: int) -> None:
        """Fill positions [reach, end): rows of VG, g, h and columns of every
        chosen row of G and H, O((end - reach) n^2)."""
        start, k = self.reach, len(self.cols)
        if end <= start:
            return
        V, VG = self.V[start:end], self.VG[start:end]
        np.matmul(V, self.LtL, out=VG)
        self.g[start:end] = _row_dots(V, VG)
        self.h[start:end] = _row_dots(VG, VG)
        self.G[:k, start:end] = self.CV[:k] @ V.T
        self.H[:k, start:end] = self.CV[:k] @ VG.T
        self.reach = int(end)

    def append(self, index: int) -> None:
        """Fill the row of the chosen candidate `index` (already read) on
        columns [0, reach), O(reach n), and the borders of Gss, Hss and J,
        O(n^2). With vg = VG[c] and lv = LtL vg, which J's border needs
        anyway, G's row is V vg and H's is V lv, so both stream V alone and
        are written in place."""
        k, c, reach = len(self.cols), int(index), self.reach
        self.cols.append(c)
        vg = self.CV[k] = self.VG[c]
        lv = self.LtL @ vg
        np.matmul(self.V[:reach], vg, out=self.G[k, :reach])
        np.matmul(self.V[:reach], lv, out=self.H[k, :reach])
        self.Gss[k, :k + 1] = self.Gss[:k + 1, k] = self.G[:k + 1, c]
        self.Hss[k, :k + 1] = self.Hss[:k + 1, k] = self.H[:k + 1, c]
        self.J[k, :k + 1] = self.J[:k + 1, k] = self.CV[:k + 1] @ lv


@dataclass(frozen=True)
class Spectrum:
    """A = U diag(lam) U^T on its explicit eigenpairs (lam descending, above
    the kernel band) plus an implicit zero block on the n0 directions
    orthogonal to U, which holds the kernel band. With W_sigma the chosen
    rows and G[sigma, sigma] = P diag(lam) P^T, U = W_sigma^T R for
    R = P diag(lam)^{-1/2}. L is seen through M = U^T L L^T U, whose
    diagonal holds the column masses ||L^T u_j||^2 (kept as mass), and the
    block's mass mass0 = ||L||_F^2 - tr M. poles is lam followed, for a
    nonempty block, by its one eigenvalue 0: the values the shift-gap check
    sees, descending. at() uses of()'s tol and keeps each result per shift,
    so a step evaluates each shift once; resolvent() keeps the k x k K of a
    shift the same way."""

    lam: np.ndarray
    R: np.ndarray
    M: np.ndarray
    mass: np.ndarray
    poles: np.ndarray
    n0: int
    mass0: float
    tol: Tolerances = field(repr=False)
    _at: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _K: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, grams: Grams, tol: Tolerances) -> "Spectrum":
        """From an eigh of the k x k Gram G[sigma, sigma] of the k chosen
        indices, grams.Gss, bordered once per index and so exactly
        symmetric; eigenpairs in the kernel band join the zero block."""
        k = len(grams.cols)
        lam, P = np.linalg.eigh(grams.Gss[:k, :k])
        lam, P = lam[::-1], P[:, ::-1]
        keep = lam > _band_edge(lam, tol)
        lam = lam[keep]
        R = P[:, keep] / np.sqrt(lam)
        M = R.T @ grams.Hss[:k, :k] @ R
        n0 = len(grams.LtL) - len(lam)
        mass0 = grams.tr_ltl - float(np.trace(M)) if n0 else 0.0
        return cls(lam, R, M, M.diagonal(), np.append(lam, 0.0) if n0 else lam, n0, mass0, tol)

    def at(self, shift: float) -> AtShift:
        """Phi = sum_j mass_j / (lam_j - shift) - mass0 / shift and its split;
        SingularShiftError when the shift sits on an eigenvalue, the block's 0 included."""
        if shift not in self._at:
            k = len(self.lam)
            d = shifted_spectrum(self.poles, shift, self.tol)
            d, d0 = d[:k], (float(d[k]) if self.n0 else 0.0)
            phi_image = float((self.mass * d).sum())
            self._at[shift] = AtShift(d, d0, phi_image + self.mass0 * d0, phi_image,
                                      -self.mass0 / shift, self.mass0)
        return self._at[shift]

    def resolvent(self, shift: float) -> np.ndarray:
        """K = R diag(d - d0) R^T at shift, so that (A - shift I)^{-1} =
        W_sigma^T K W_sigma + d0 I: the k x k matrix through which the scan
        and the averaging test see the resolvent."""
        if shift not in self._K:
            at = self.at(shift)
            self._K[shift] = (self.R * (at.d - at.d0)) @ self.R.T
        return self._K[shift]


@dataclass(frozen=True)
class SelectionState:
    """Running state: chosen indices, current barrier, the spectrum of
    A = sum_{i in sigma} (L v_i)(L v_i)^T and the Grams it was read from."""

    sigma: List[int]
    barrier_b: float
    spectrum: Spectrum
    grams: Grams

    @classmethod
    def of(cls, dec: Decomposition, sigma: Sequence[int], barrier_b: float,
           tol: Tolerances | None = None) -> "SelectionState":
        """The state after choosing sigma, with the barrier at barrier_b."""
        tol = tol or default_tolerances()
        sigma = checked_indices(sigma, dec.m, "sigma").tolist()
        grams = Grams.of(dec, sigma)
        return cls(sigma, barrier_b, Spectrum.of(grams, tol), grams)


@dataclass(frozen=True)
class FeasibilityRecord:
    quadform: float
    potential_after_add: float
    feasible: bool
    reason: str = ""


@dataclass(frozen=True)
class PreconditionDiagnostics:
    potential_ok: bool
    barrier_window_ok: bool
    kernel_mass_ok: bool
    averaging_ok: bool

    def all_ok(self) -> bool:
        return (
            self.potential_ok
            and self.barrier_window_ok
            and self.kernel_mass_ok
            and self.averaging_ok
        )


@dataclass(frozen=True)
class StepTrace:
    """Per-step diagnostics recorded by the selection loop."""

    step: int
    chosen_index: int
    barrier_before: float
    barrier_after: float
    phi_before: float
    phi_after: float
    phi_image: float
    phi_kernel: float
    kernel_frob_sq: float
    candidates_scanned: int
    quadform_margin: float
    potential_margin: float
    preconditions: PreconditionDiagnostics

    def to_dict(self) -> dict:
        """The fields in declaration order, chosen_index 1-based for output."""
        return dict(asdict(self), chosen_index=self.chosen_index + 1)


@dataclass(frozen=True)
class SelectionResult:
    sigma: List[int]
    schedule: Schedule
    traces: List[StepTrace] = field(default_factory=list)

    @property
    def vacuous(self) -> bool:
        return self.schedule.vacuous


def compute_schedule(L, m: int, epsilon: float) -> Schedule:
    """Barrier schedule for operator L and m candidate vectors.

    b0 = (1-eps) ||L||_F^2 / m, delta = (1-eps) ||L||_2^2 / (eps m), and
    t = floor(eps^2 ||L||_F^2 / ||L||_2^2), with ||L||_2^2 the largest
    eigenvalue of L^T L. When eps^2 times the stable rank is below 1 the
    schedule is vacuous (t = 0). ParameterError unless m is a positive
    integer and epsilon a real number in (0, 1), DimensionError unless L is
    square, NormRangeError when ||L||_F^2 is outside FROB_SQ_RANGE.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ParameterError(f"m must be a positive integer, got {m!r}")
    return _schedule(square_operator(L), m, epsilon)[0]


def _schedule(L, m: int, epsilon: float):
    """compute_schedule's Schedule and the L^T L it took ||L||_2^2 from,
    or None when L's bits (-0.0 and 0.0 differ) equal the last L scheduled
    and ||L||_2^2 is that run's."""
    global _last_spec_sq
    if not isinstance(epsilon, numbers.Real):
        raise ParameterError(f"epsilon must be a real number in (0, 1), got {epsilon!r}")
    # A real inside (0, 1) may still round to 0.0 or 1.0 as a float; one
    # outside it is rejected before float() could overflow.
    if not (0.0 < epsilon < 1.0 and 0.0 < float(epsilon) < 1.0):
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    epsilon, L = float(epsilon), np.asarray(L, dtype=float)
    with np.errstate(over="ignore"):
        frob_sq = frobenius_norm_sq(L)
    if frob_sq == 0.0 and not L.any():
        raise ZeroOperatorError("cannot schedule the zero operator")
    lo, hi = FROB_SQ_RANGE
    if not lo <= frob_sq <= hi:
        raise NormRangeError(
            f"||L||_F^2 = {frob_sq:.3e} is outside the float range [{lo:.3e}, {hi:.3e}] "
            "of the walk; rescale L"
        )
    entry = _last_spec_sq
    if entry is not None and np.array_equal(entry[0].view(np.uint64), L.view(np.uint64)):
        LtL, spec_sq = None, entry[1]
    else:
        LtL = L.T @ L
        spec_sq = float(np.linalg.eigvalsh(LtL)[-1])
        key = np.array(L, order="C")
        key.flags.writeable = False
        _last_spec_sq = (key, spec_sq)
    t = int(math.floor(epsilon * epsilon * (frob_sq / spec_sq)))
    b0 = (1.0 - epsilon) * frob_sq / m
    delta = (1.0 - epsilon) * spec_sq / (epsilon * m)
    if t >= 1 and not t * delta < b0:
        raise InvariantViolation(
            f"schedule inconsistent: t*delta = {t * delta} >= b0 = {b0}"
        )
    return Schedule(
        epsilon=epsilon, b0=b0, delta=delta, steps_t=t, m=m,
        frob_sq=frob_sq, spec_sq=spec_sq,
    ), LtL


def potential(A, b: float, L, tol: Tolerances | None = None) -> float:
    """Barrier potential tr(L^T (A - bI)^{-1} L), from one eigh of A."""
    L = np.asarray(L, dtype=float)
    return float(np.sum(L * (shifted_inverse(A, b, tol) @ L)))


def potential_split(A, b_prime: float, L, tol: Tolerances | None = None):
    """Potential split across the image and kernel of A at barrier b_prime.

    Returns (phi_P, phi_Q, qL_frob_sq) where phi_Q = -qL_frob_sq / b_prime
    and qL_frob_sq is the squared Frobenius mass of L seen by the kernel
    projection of A. One eigh of A; the reference for Spectrum.at.
    """
    tol = tol or default_tolerances()
    lam, U = sym_eigendecomposition(A, tol)
    LtU = np.asarray(L, dtype=float).T @ U
    mass = np.sum(LtU * LtU, axis=0)
    kernel = lam <= _band_edge(lam, tol)
    qL = float(np.sum(mass[kernel]))
    phi_P = float(np.sum((mass * shifted_spectrum(lam, b_prime, tol))[~kernel]))
    return phi_P, -qL / b_prime, qL


def candidate_feasible(
    A,
    A_shifted_inv,
    L,
    w,
    phi_before: float,
    phi_after_shift: float,
    slack: float = 0.0,
) -> FeasibilityRecord:
    """Evaluate the two per-candidate tests at the lowered barrier.

    Test one (rank growth): w^T (A - b'I)^{-1} w < -1.
    Test two (no potential increase): the rank-one inverse update gives
    phi_after_shift - num / (1 + quadform) <= phi_before, with
    num = || L^T (A - b'I)^{-1} w ||^2.

    `slack` is a relative acceptance slack applied to both comparisons
    (used only on the retry pass). Scalar reference for select_next's scan.
    """
    w = np.asarray(w, dtype=float)
    if float(w @ w) == 0.0:
        return FeasibilityRecord(0.0, math.nan, False, "zero-vector")
    M = np.asarray(A_shifted_inv, dtype=float)
    L = np.asarray(L, dtype=float)
    Mw = M @ w
    quadform = float(w @ Mw)
    y = L.T @ Mw
    numerator = float(y @ y)
    potential_after_add = phi_after_shift - numerator / (1.0 + quadform)
    rank_ok = quadform < -1.0 + slack
    potential_ok = potential_after_add <= phi_before + slack * abs(phi_before)
    feasible = rank_ok and potential_ok
    reason = "" if feasible else ("rank-test" if not rank_ok else "potential-test")
    return FeasibilityRecord(quadform, potential_after_add, feasible, reason)


def _t_frob_sq(state: SelectionState, shift: float) -> float:
    """||T||_F^2 for T = L^T (A - shift I)^{-1} L = VG_sigma^T K VG_sigma + d0 LtL,
    K the resolvent at shift and D = diag(d - d0): tr(DMDM) + 2 d0 sum(J o K)
    + d0^2 ||LtL||_F^2, since tr(VG_sigma^T K VG_sigma LtL) = tr(K J)."""
    spec, grams = state.spectrum, state.grams
    at, k = spec.at(shift), len(grams.cols)
    DM = (at.d - at.d0)[:, None] * spec.M
    return float((DM * DM.T).sum() + 2.0 * at.d0 * (grams.J[:k, :k] * spec.resolvent(shift)).sum()
                 + at.d0 * at.d0 * grams.ltl_sq)


def check_step_preconditions(
    state: SelectionState, schedule: Schedule, tol: Tolerances | None = None
) -> PreconditionDiagnostics:
    """Diagnostics guaranteeing a feasible candidate exists at this step.

    potential_ok:       Phi_b(A) <= -m - ||L||_2^2 / delta
    barrier_window_ok:  0 < delta < b
    kernel_mass_ok:     b <= delta ||QL||_F^2 / ||L||_2^2
    averaging_ok:       the summed feasibility inequality over all m
                        candidates holds at the lowered barrier.
    Failures surface as flags, never exceptions.
    """
    tol = tol or default_tolerances()
    spec = state.spectrum
    b = state.barrier_b
    at_b, at_bp = spec.at(b), spec.at(b - schedule.delta)
    slack = tol.precondition_slack

    target = -schedule.m - schedule.spec_sq / schedule.delta
    potential_ok = at_b.phi <= target + slack * abs(target)

    barrier_window_ok = 0.0 < schedule.delta < b

    rhs_kernel = schedule.delta * at_bp.kernel_mass / schedule.spec_sq
    kernel_mass_ok = b <= rhs_kernel + slack * abs(rhs_kernel)

    lhs = _t_frob_sq(state, b - schedule.delta)
    rhs = (at_b.phi - at_bp.phi) * (-schedule.m - at_bp.phi)
    averaging_ok = lhs <= rhs + slack * abs(rhs)

    return PreconditionDiagnostics(potential_ok, barrier_window_ok, kernel_mass_ok, averaging_ok)


def _pick(quad, after, phi_before: float, slack: float, first: bool):
    """The chosen candidate's place among those left (None if none passes), candidates scanned."""
    ok = (quad < -1.0 + slack) & (after <= phi_before + slack * abs(phi_before))
    hits = ok.nonzero()[0]
    if hits.size == 0:
        return None, len(quad)
    if first:
        return int(hits[0]), int(hits[0]) + 1
    return int(hits[np.argmin(after[hits])]), len(quad)


def select_next(
    state: SelectionState,
    schedule: Schedule,
    pivot_rule: str = PIVOT_FIRST,
    tol: Tolerances | None = None,
):
    """Choose the next index to add at the lowered barrier b - delta;
    returns (index, FeasibilityRecord, candidates scanned).

    FirstFeasible returns the smallest feasible index; GreedyMinPotential
    the feasible index with smallest updated potential, ties broken by the
    smaller index; pivot_rule comes checked from run_selection. Raises
    InfeasibilityError when nothing passes even with the retry slack.

    Blocks of candidates are tested at once, each O(k^2) once its Gram rows
    are read: FirstFeasible tests blocks of 1, 2, 4, ... of the candidates
    left, in index order, and stops at the first block with a hit, so it reads
    rows only up to that block; GreedyMinPotential reads all rows and tests
    one block. A block is one k x B slice of columns of the k-major G and
    H, its taken columns masked out. With K the resolvent at b',
    (A - b'I)^{-1} = W_sigma^T K W_sigma + d0 I, so for w = L v with columns
    G_p, H_p and Z = K G_p: quadform = G_p^T Z + d0 ||w||^2, and
    y = L^T (A - b'I)^{-1} w has ||y||^2 = Z^T H[sigma, sigma] Z
    + 2 d0 H_p^T Z + d0^2 ||L^T w||^2, two m x k x k products for greedy. The
    retry pass re-reads them with slack.
    """
    tol = tol or default_tolerances()
    first = pivot_rule == PIVOT_FIRST
    spec, grams, k = state.spectrum, state.grams, len(state.sigma)
    b_prime = state.barrier_b - schedule.delta
    phi_before = spec.at(state.barrier_b).phi
    at_bp, K = spec.at(b_prime), spec.resolvent(b_prime)
    d0, H_ss = at_bp.d0, grams.Hss[:k, :k]
    left = np.ones(len(grams.V), dtype=bool)
    left[grams.cols] = False
    order = left.nonzero()[0]  # the indices of the candidates left

    # NaN marks a candidate not reached, or a zero vector: it passes no test.
    quad = np.full(len(order), np.nan)
    after = np.full(len(order), np.nan)
    pos, scanned = None, len(order)
    start, size = 0, 1 if first else len(order)
    with np.errstate(divide="ignore", invalid="ignore"):
        while start < len(order):
            end = min(start + size, len(order))
            rows = slice(order[start], order[end - 1] + 1)
            grams.read(rows.stop)
            G, H, w_sq, keep = grams.G[:k, rows], grams.H[:k, rows], grams.g[rows], left[rows]
            Z = K @ G
            y_sq = _col_dots(H_ss @ Z, Z) + 2.0 * d0 * _col_dots(Z, H) + d0 * d0 * grams.h[rows]
            q = np.where(w_sq > 0, _col_dots(Z, G) + d0 * w_sq, np.nan)[keep]
            quad[start:end], after[start:end] = q, at_bp.phi - y_sq[keep] / (1.0 + q)
            hit = _pick(q, after[start:end], phi_before, 0.0, first)[0] if first else None
            if hit is not None:
                pos, scanned = start + hit, start + hit + 1
                break
            start, size = end, 2 * size

    if not first:
        pos, scanned = _pick(quad, after, phi_before, 0.0, first)
    if pos is None:
        pos, retried = _pick(quad, after, phi_before, tol.feasibility_retry, first)
        scanned += retried
    if pos is None:
        qm, pm = -1.0 - quad, phi_before - after
        score = np.nan_to_num(np.minimum(qm, pm), nan=-np.inf, neginf=-np.inf)
        j = int(np.argmax(score)) if score.max(initial=-np.inf) > -np.inf else None
        margins = (-math.inf, -math.inf) if j is None else (float(qm[j]), float(pm[j]))
        raise InfeasibilityError(
            f"no feasible candidate at step {len(state.sigma)} (best quadform margin "
            f"{margins[0]:.3e}, best potential margin {margins[1]:.3e})",
            best_quadform_margin=margins[0], best_potential_margin=margins[1],
        )
    rec = FeasibilityRecord(float(quad[pos]), float(after[pos]), True)
    return int(order[pos]), rec, scanned


def _interlace(before: np.ndarray, after: np.ndarray, n: int, slack: float) -> None:
    """check_interlacing on two spectra of length n given by their p and q
    explicit eigenvalues, descending, followed by zeros. It reads the first
    j = min(n, max(p, q) + 1) entries: past them both spectra are zero, so
    the verdict and the slack's scale are those of length n."""
    p, q = len(before), len(after)
    j = min(n, max(p, q) + 1)
    a, b = np.zeros(j), np.zeros(j)
    a[:p], b[:q] = before, after
    check_interlacing(a, b, slack)


def _check_post_step(old: Spectrum, new: Spectrum, k_next, b_prime, rec, phi_before, tol):
    """Runtime invariant checks after a rank-one acceptance, on the spectra of A and A + w w^T."""
    above, below = int(np.count_nonzero(new.lam > b_prime)), new.n0
    n = len(new.lam) + below
    _interlace(old.lam, new.lam, n, tol.interlacing_slack)
    if above != k_next or below != n - k_next:
        raise InvariantViolation(
            f"barrier invariant failed at step {k_next}: {above} eigenvalues above "
            f"b'={b_prime:.6g}, {below} in the kernel band (expected {k_next} and {n - k_next})"
        )
    if rec.potential_after_add > phi_before + tol.potential_slack * abs(phi_before):
        raise InvariantViolation(
            f"potential increased at step {k_next}: "
            f"{rec.potential_after_add} > {phi_before}"
        )
    phi_fresh = new.at(b_prime).phi
    denom = max(abs(phi_fresh), 1.0)
    if abs(phi_fresh - rec.potential_after_add) > tol.sm_consistency * denom:
        raise InvariantViolation(
            f"rank-one potential update disagrees with fresh recomputation at step {k_next}: "
            f"{rec.potential_after_add} vs {phi_fresh}"
        )


def run_selection(
    dec: Decomposition,
    epsilon: float,
    pivot_rule: str = PIVOT_FIRST,
    tol: Tolerances | None = None,
) -> SelectionResult:
    """Run the full barrier walk and return the selected index list.

    Deterministic for fixed inputs and pivot rule; candidates are scanned in
    index order, so permuted(dec, perm) sets the order. Every step
    records its existence-precondition diagnostics in the traces, and after
    every step the barrier count, eigenvalue interlacing, potential
    monotonicity and the rank-one update identity are checked on the
    spectrum from the Gram of the chosen rows, which the next step reads; the final
    barrier is checked against the promised bound.
    """
    tol = tol or default_tolerances()
    dec = validate(dec, tol)
    if pivot_rule not in (PIVOT_FIRST, PIVOT_GREEDY):
        raise ParameterError(f"unknown pivot rule {pivot_rule!r}")
    schedule, LtL = _schedule(dec.L, dec.m, epsilon)
    if schedule.vacuous:
        return SelectionResult(sigma=[], schedule=schedule)

    grams = Grams.of(dec, capacity=schedule.steps_t, LtL=LtL)
    state = SelectionState([], schedule.b0, Spectrum.of(grams, tol), grams)
    traces: List[StepTrace] = []

    for _ in range(schedule.steps_t):
        spec = state.spectrum
        diag = check_step_preconditions(state, schedule, tol)
        chosen, rec, scanned = select_next(state, schedule, pivot_rule, tol)
        # Both shifts were evaluated by the two calls above and are kept on spec.
        b_prime = state.barrier_b - schedule.delta
        phi_before, split = spec.at(state.barrier_b).phi, spec.at(b_prime)
        sigma = state.sigma + [chosen]
        grams.append(chosen)
        spec_new = Spectrum.of(grams, tol)
        step = len(sigma)
        _check_post_step(spec, spec_new, step, b_prime, rec, phi_before, tol)
        traces.append(
            StepTrace(
                step=step,
                chosen_index=chosen,
                barrier_before=state.barrier_b,
                barrier_after=b_prime,
                phi_before=phi_before,
                phi_after=rec.potential_after_add,
                phi_image=split.phi_image,
                phi_kernel=split.phi_kernel,
                kernel_frob_sq=split.kernel_mass,
                candidates_scanned=scanned,
                quadform_margin=-1.0 - rec.quadform,
                potential_margin=phi_before - rec.potential_after_add,
                preconditions=diag,
            )
        )
        state = SelectionState(sigma, b_prime, spec_new, grams)

    final_b = schedule.b0 - schedule.delta * schedule.steps_t
    if final_b < schedule.guarantee_bound - 1e-12 * abs(schedule.guarantee_bound):
        raise InvariantViolation(
            f"final barrier {final_b} fell below the promised bound "
            f"{schedule.guarantee_bound}"
        )
    return SelectionResult(sigma=state.sigma, schedule=schedule, traces=traces)
