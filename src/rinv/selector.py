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
rows of the chosen indices, kept in the order they were chosen.

run_selection validates, schedules and sets up the empty state and its
spectrum at b0, then loops over _step. A step evaluates its spectrum once at
b' = b - delta and forms the resolvent K(b') from that AtShift once; its
AtShift at b is the one the previous step's post-step check made. It passes
these values to its phases in order: check_step_preconditions, select_next,
Grams.append of the chosen row, Spectrum.of the k + 1 chosen rows (the next
step's spectrum), _check_post_step (which returns that spectrum at b', the
next step's b) and the StepTrace.
potential and potential_split are references from one eigh of a dense A.
"""

import math
import numbers
import sys
from bisect import bisect_right, insort
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .decomposition import Decomposition, checked_indices, square_operator, validate
from .errors import (
    InfeasibilityError,
    InvariantViolation,
    NormRangeError,
    ParameterError,
    RinvError,
    ZeroOperatorError,
)
from .matrix_core import check_interlacing, shifted_inverse, shifted_spectrum
from .tolerances import Tolerances, default_tolerances

PIVOT_FIRST = "first"
PIVOT_GREEDY = "greedy"
# The walk forms Grams up to the third power of L^T L (J), so ||L||_F^2 must
# lie where its cube is a normal float.
FROB_SQ_RANGE = (np.finfo(float).tiny ** (1 / 3), np.finfo(float).max ** (1 / 3))
# Rows a short Grams.read fills at once, with their L^T L products for append.
READ_AHEAD = 16
# Bytes of V in one row block of Grams.append's product, half a 2 MB per-core
# L2. us per append (2-core Xeon, one BLAS thread) at 4096x64 / 2000x1000 /
# 4000x2000: two GEMVs 192 / 1,655 / 10,011; 1 MB blocks 124 / 925 / 5,829; 4 MB
# blocks 132 / 2,381 / 11,032.
APPEND_BLOCK_BYTES = 2**20
# ||L||_2^2 of the last L scheduled, as (a read-only C-ordered copy of L,
# spec_sq): a verify after a run on the same L takes no second eigvalsh.
_last_spec_sq: Optional[tuple] = None


class Schedule(NamedTuple):
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
    phi_kernel: float  # -mass0 / shift (0 if the block is empty)


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


class Grams:
    """The candidates w = L v seen through LtL = L^T L, in index order and in
    the order the walk chooses them.

    Row p belongs to the candidate p and is filled on first read, up to the
    high-water mark reach: VG[p] = V[p] LtL, g[p] = ||w||^2 and h[p] =
    ||L^T w||^2. G and H are k-major: for c = cols[j], the j-th chosen
    index, CV[j] = VG[c], G[j, p] = V[p] VG[c]^T and H[j, p] = VG[p]
    VG[c]^T, entries of the Grams W W^T (rows w) and VG VG^T. The k x k
    blocks Gss = G[:, cols], Hss = H[:, cols] and J = CV LtL CV^T are
    bordered once per chosen index, taken[p] is set once p is chosen and
    ranked holds the chosen indices in increasing order.
    read(e) fills columns [reach, e) of every chosen row and append the new
    row on columns [0, reach), up to `capacity` rows, so each entry is
    computed once and every block a step reads is a view. A read of at most
    READ_AHEAD rows that stops short of m, first-feasible's, reads ahead to
    reach + READ_AHEAD and forms the block's LV = VG LtL rows, which append
    takes as lv: LtL is streamed twice per block, not twice per step.
    """

    __slots__ = ("V", "LtL", "VG", "LV", "has_lv", "taken", "g", "h", "tr_ltl", "ltl_sq",
                 "G", "H", "CV", "Gss", "Hss", "J", "cols", "ranked", "reach", "pair", "out")

    @classmethod
    def of(cls, dec: Decomposition, sigma: Sequence[int] = (), capacity: int = 0,
           LtL: Optional[np.ndarray] = None) -> "Grams":
        """The Grams of dec with sigma's columns filled; LtL, if given, is L^T L."""
        grams = cls()
        V, L = np.asarray(dec.V, dtype=float), np.asarray(dec.L, dtype=float)
        m, n = V.shape
        LtL = L.T @ L if LtL is None else LtL
        cap = max(capacity, len(sigma))
        grams.V, grams.LtL, grams.VG, grams.LV = V, LtL, np.empty((m, n)), np.empty((m, n))
        grams.has_lv, grams.taken = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
        grams.g, grams.h = np.empty(m), np.empty(m)
        grams.tr_ltl, grams.ltl_sq = float(np.trace(LtL)), float(np.sum(LtL * LtL))
        grams.G, grams.H, grams.CV = np.empty((cap, m)), np.empty((cap, m)), np.empty((cap, n))
        grams.Gss, grams.Hss, grams.J = (np.empty((cap, cap)) for _ in range(3))
        grams.cols, grams.ranked, grams.reach = [], [], 0
        rows = min(m, max(1, APPEND_BLOCK_BYTES // max(1, 8 * n)))  # append's row block of V
        grams.pair, grams.out = np.empty((n, 2)), np.empty((rows, 2))  # [vg, lv], a block of V pair
        for i in sigma:
            grams.read(i + 1)
            grams.append(i)
        return grams

    def read(self, end: int) -> None:
        """Fill positions [reach, end): rows of VG, g, h and columns of every
        chosen row of G and H, O((end - reach) n^2). A read of at most
        READ_AHEAD rows that ends before m fills [reach, min(m, reach +
        READ_AHEAD)) instead, and those rows of LV."""
        start, k, m = self.reach, len(self.cols), len(self.V)
        if end <= start:
            return
        ahead = end - start <= READ_AHEAD and end < m
        end = min(m, start + READ_AHEAD) if ahead else end
        V, VG = self.V[start:end], self.VG[start:end]
        np.matmul(V, self.LtL, out=VG)
        if ahead:
            np.matmul(VG, self.LtL, out=self.LV[start:end])
            self.has_lv[start:end] = True
        self.g[start:end] = _row_dots(V, VG)
        self.h[start:end] = _row_dots(VG, VG)
        self.G[:k, start:end] = self.CV[:k] @ V.T
        self.H[:k, start:end] = self.CV[:k] @ VG.T
        self.reach = int(end)

    def append(self, index: int) -> None:
        """Fill the row of the chosen candidate `index` (already read) on
        columns [0, reach), O(reach n), and the borders of Gss, Hss and J,
        O(n^2). With vg = VG[c] and lv = LtL vg (LV[c] if read ahead), which
        J's border needs anyway, G's row is V vg and H's is V lv: one pass
        over V, a block of rows at a time, forms both."""
        k, c, reach, pair, out = len(self.cols), int(index), self.reach, self.pair, self.out
        self.cols.append(c)
        insort(self.ranked, c)
        self.taken[c] = True
        vg = self.CV[k] = self.VG[c]
        lv = self.LV[c] if self.has_lv[c] else self.LtL @ vg
        pair[:, 0], pair[:, 1] = vg, lv
        for start in range(0, reach, len(out)):
            end = min(reach, start + len(out))
            block = np.matmul(self.V[start:end], pair, out=out[:end - start])
            self.G[k, start:end], self.H[k, start:end] = block[:, 0], block[:, 1]
        self.Gss[k, :k + 1] = self.Gss[:k + 1, k] = self.G[:k + 1, c]
        self.Hss[k, :k + 1] = self.Hss[:k + 1, k] = self.H[:k + 1, c]
        self.J[k, :k + 1] = self.J[:k + 1, k] = self.CV[:k + 1] @ lv


class Spectrum(NamedTuple):
    """A = U diag(lam) U^T on its k explicit eigenpairs (lam descending, one
    per chosen index) plus an implicit zero block on the n0 = n - k
    directions orthogonal to U. With W_sigma the chosen
    rows and G[sigma, sigma] = P diag(lam) P^T, U = W_sigma^T R for
    R = P diag(lam)^{-1/2}. L is seen through M = U^T L L^T U, whose
    diagonal holds the column masses ||L^T u_j||^2 (kept as mass), and the
    block's mass mass0 = ||L||_F^2 - tr M. poles is lam (a view of its
    head) followed, for a nonempty block, by its one eigenvalue 0: the values
    the shift-gap check sees, descending. at() uses of()'s tol and keeps
    nothing: _step calls it once at b' and hands that AtShift and its
    resolvent_at to the phases, and the post-step check calls it once on the
    next spectrum, at the next step's b."""

    lam: np.ndarray
    R: np.ndarray
    M: np.ndarray
    mass: np.ndarray
    poles: np.ndarray
    n0: int
    mass0: float
    tol: Tolerances

    @classmethod
    def of(cls, grams: Grams, tol: Tolerances) -> "Spectrum":
        """From an eigh of the k x k Gram G[sigma, sigma] of the k chosen
        indices, grams.Gss, bordered once per index and so exactly
        symmetric. A has rank k, as the barrier keeps its nonzero eigenvalues
        above it: InvariantViolation if one is in the kernel band."""
        k, n0 = len(grams.cols), len(grams.LtL) - len(grams.cols)
        ascending, P = np.linalg.eigh(grams.Gss[:k, :k])
        poles = np.zeros(k + (n0 > 0))  # lam, then the block's 0
        lam, P = poles[:k], P[:, ::-1]
        lam[:] = ascending[::-1]
        if k and lam[-1] <= _band_edge(lam, tol):
            raise InvariantViolation(
                f"barrier invariant failed: the Gram of the {k} chosen vectors has "
                f"eigenvalue {lam[-1]:.3e} in the kernel band"
            )
        R = np.asfortranarray(P) / np.sqrt(lam)  # column-major: M's rounding depends on R's layout
        M = R.T @ grams.Hss[:k, :k] @ R
        mass0 = grams.tr_ltl - float(M.trace()) if n0 else 0.0
        return cls(lam, R, M, M.diagonal(), poles, n0, mass0, tol)

    def at(self, shift: float) -> AtShift:
        """Phi = sum_j mass_j / (lam_j - shift) - mass0 / shift and its split;
        SingularShiftError when the shift sits on an eigenvalue, the block's 0 included."""
        k = len(self.lam)
        d = shifted_spectrum(self.poles, shift, self.tol)
        d, d0 = d[:k], (float(d[k]) if self.n0 else 0.0)
        phi_image = float((self.mass * d).sum())
        return AtShift(d, d0, phi_image + self.mass0 * d0, phi_image,
                       -self.mass0 / shift if self.n0 else 0.0)

    def resolvent(self, shift: float) -> np.ndarray:
        """resolvent_at(at(shift))."""
        return self.resolvent_at(self.at(shift))

    def resolvent_at(self, at: AtShift) -> np.ndarray:
        """K = R diag(d - d0) R^T at the shift at was evaluated at, so that
        (A - shift I)^{-1} = W_sigma^T K W_sigma + d0 I: the k x k matrix
        through which the scan and the averaging test see the resolvent."""
        return (self.R * (at.d - at.d0)) @ self.R.T


class SelectionState(NamedTuple):
    """Running state: chosen indices, current barrier, the spectrum of
    A = sum_{i in sigma} (L v_i)(L v_i)^T and the Grams it was read from."""

    sigma: List[int]
    barrier_b: float
    spectrum: Spectrum
    grams: Grams

    @classmethod
    def of(cls, dec: Decomposition, sigma: Sequence[int], barrier_b: float) -> "SelectionState":
        """The state after choosing sigma, with the barrier at barrier_b."""
        sigma = checked_indices(sigma, dec.m, "sigma").tolist()
        grams = Grams.of(dec, sigma)
        return cls(sigma, barrier_b, Spectrum.of(grams, default_tolerances()), grams)


class FeasibilityRecord(NamedTuple):
    quadform: float
    potential_after_add: float
    feasible: bool
    reason: str = ""


class PreconditionDiagnostics(NamedTuple):
    potential_ok: bool
    barrier_window_ok: bool
    kernel_mass_ok: bool
    averaging_ok: bool


class StepTrace(NamedTuple):
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
        """The fields in declaration order as plain dicts, preconditions
        nested, chosen_index 1-based for output."""
        return dict(self._asdict(), chosen_index=self.chosen_index + 1,
                    preconditions=self.preconditions._asdict())


class SelectionResult(NamedTuple):
    sigma: List[int]
    schedule: Schedule
    traces: List[StepTrace]

    @property
    def vacuous(self) -> bool:
        return self.schedule.vacuous


def compute_schedule(L, m: int, epsilon: float) -> Schedule:
    """Barrier schedule for operator L and m candidate vectors.

    b0 = (1-eps) ||L||_F^2 / m, delta = (1-eps) ||L||_2^2 / (eps m), and
    t = floor(eps^2 ||L||_F^2 / ||L||_2^2), with ||L||_2^2 the largest
    eigenvalue of L^T L. When eps^2 times the stable rank is below 1 the
    schedule is vacuous (t = 0). ParameterError unless m is a positive
    integer at most the largest float and epsilon a real in (0, 1), DimensionError
    unless L is square, NormRangeError when ||L||_F^2 is outside FROB_SQ_RANGE,
    InvariantViolation unless t delta < b0 and the final barrier b0 - t delta
    is at least the guarantee bound, to a relative 1e-12.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ParameterError(f"m must be a positive integer, got {m!r}")
    if m > sys.float_info.max:
        raise ParameterError(f"m must be at most the largest float, {sys.float_info.max:.3e}")
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
        frob_sq = float(np.sum(L * L))
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
    schedule = Schedule(
        epsilon=epsilon, b0=b0, delta=delta, steps_t=t, m=m,
        frob_sq=frob_sq, spec_sq=spec_sq,
    )
    if t >= 1 and not t * delta < b0:
        raise InvariantViolation(
            f"schedule inconsistent: t*delta = {t * delta} >= b0 = {b0}"
        )
    final_b, bound = b0 - delta * t, schedule.guarantee_bound
    if t >= 1 and final_b < bound - 1e-12 * abs(bound):
        raise InvariantViolation(
            f"final barrier {final_b} fell below the promised bound {bound}"
        )
    return schedule, LtL


def potential(A, b: float, L) -> float:
    """Barrier potential tr(L^T (A - bI)^{-1} L), from one eigh of A."""
    L = np.asarray(L, dtype=float)
    return float(np.sum(L * (shifted_inverse(A, b) @ L)))


def potential_split(A, b_prime: float, L):
    """Potential split across the image and kernel of A at barrier b_prime.

    Returns (phi_P, phi_Q, qL_frob_sq) where phi_Q = -qL_frob_sq / b_prime
    and qL_frob_sq is the squared Frobenius mass of L seen by the kernel
    projection of A. One eigh of A; the reference for Spectrum.at.
    """
    tol = default_tolerances()
    lam, U = np.linalg.eigh(A)
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
) -> FeasibilityRecord:
    """Evaluate the two per-candidate tests at the lowered barrier.

    Test one (rank growth): w^T (A - b'I)^{-1} w < -1.
    Test two (no potential increase): the rank-one inverse update gives
    phi_after_shift - num / (1 + quadform) <= phi_before, with
    num = || L^T (A - b'I)^{-1} w ||^2.

    Both comparisons are exact, as in the walk. Scalar reference for
    select_next's scan.
    """
    w = np.asarray(w, dtype=float)
    if float(w @ w) == 0.0:
        return FeasibilityRecord(0.0, math.nan, False, "zero-vector")
    M = np.asarray(A_shifted_inv, dtype=float)
    L = np.asarray(L, dtype=float)
    Mw = M @ w
    quadform = float(w @ Mw)
    y = L.T @ Mw
    # As in select_next's arrays, 1 + quadform = 0 divides to -inf (or NaN),
    # and quadform = -1 fails the rank test.
    with np.errstate(divide="ignore", invalid="ignore"):
        potential_after_add = float(phi_after_shift - (y @ y) / (1.0 + quadform))
    rank_ok = quadform < -1.0
    potential_ok = potential_after_add <= phi_before
    feasible = rank_ok and potential_ok
    reason = "" if feasible else ("rank-test" if not rank_ok else "potential-test")
    return FeasibilityRecord(quadform, potential_after_add, feasible, reason)


def _t_frob_sq(state: SelectionState, at: AtShift, K: np.ndarray) -> float:
    """||T||_F^2 for T = L^T (A - shift I)^{-1} L = VG_sigma^T K VG_sigma + d0 LtL,
    with at and K the spectrum's values at shift and D = diag(d - d0):
    tr(DMDM) + 2 d0 sum(J o K) + d0^2 ||LtL||_F^2, since
    tr(VG_sigma^T K VG_sigma LtL) = tr(K J)."""
    spec, grams, k = state.spectrum, state.grams, len(state.grams.cols)
    DM = (at.d - at.d0)[:, None] * spec.M
    return float((DM * DM.T).sum() + 2.0 * at.d0 * (grams.J[:k, :k] * K).sum()
                 + at.d0 * at.d0 * grams.ltl_sq)


def check_step_preconditions(state: SelectionState, schedule: Schedule, at_b: AtShift,
                             at_bp: AtShift, K: np.ndarray) -> PreconditionDiagnostics:
    """Diagnostics guaranteeing a feasible candidate exists at this step, from
    state.spectrum's values at the barrier b (at_b) and at b' = b - delta
    (at_bp, and K = its resolvent_at(at_bp)).

    potential_ok:       Phi_b(A) <= -m - ||L||_2^2 / delta
    barrier_window_ok:  0 < delta < b
    kernel_mass_ok:     b <= delta ||QL||_F^2 / ||L||_2^2
    averaging_ok:       the summed feasibility inequality over all m
                        candidates holds at the lowered barrier.
    Failures surface as flags, never exceptions; the slack is the one
    state.spectrum was built with.
    """
    spec, b = state.spectrum, state.barrier_b
    slack = spec.tol.precondition_slack

    target = -schedule.m - schedule.spec_sq / schedule.delta
    potential_ok = at_b.phi <= target + slack * abs(target)

    barrier_window_ok = 0.0 < schedule.delta < b

    rhs_kernel = schedule.delta * spec.mass0 / schedule.spec_sq
    kernel_mass_ok = b <= rhs_kernel + slack * abs(rhs_kernel)

    lhs = _t_frob_sq(state, at_bp, K)
    rhs = (at_b.phi - at_bp.phi) * (-schedule.m - at_bp.phi)
    averaging_ok = lhs <= rhs + slack * abs(rhs)

    return PreconditionDiagnostics(potential_ok, barrier_window_ok, kernel_mass_ok, averaging_ok)


def _pick(quad, after, phi_before: float, first: bool, free):
    """The place of the chosen candidate among the free places of quad and
    after, or None if none passes both tests exactly: the first hit, or for
    greedy the first with the least after."""
    ok = (quad < -1.0) & (after <= phi_before) & free
    i = ok.argmax() if first else np.where(ok, after, np.inf).argmin()
    return int(i) if ok[i] else None


def select_next(state: SelectionState, schedule: Schedule, at_b: AtShift, at_bp: AtShift,
                K: np.ndarray, pivot_rule: str = PIVOT_FIRST):
    """Choose the next index to add at the lowered barrier b' = b - delta;
    returns (index, FeasibilityRecord, candidates scanned). at_b, at_bp and
    K are state.spectrum's values at b and b', as check_step_preconditions
    takes them.

    FirstFeasible returns the smallest feasible index; GreedyMinPotential
    the feasible index with smallest updated potential, ties broken by the
    smaller index only where they are exact in floating point: candidates
    tied in exact arithmetic can round apart, and the least rounded value
    wins (the harmonic frame in R^16 with m = 40 and L = I ties all 40 at
    step 1 and gives index 6 first). pivot_rule comes checked from
    run_selection. A candidate is feasible only if it passes both tests
    exactly: the barrier argument guarantees one whenever the step's
    preconditions hold. When none does, InfeasibilityError names the step
    and the best margins.

    Blocks of candidates are tested at once, each O(k^2) once its Gram rows
    are read: FirstFeasible tests blocks of 1, 2, 4, ... of the candidates
    left, in index order, and stops at the first block with a hit, so it reads
    rows only up to that block; GreedyMinPotential reads all rows and tests
    one block. A block is one k x B slice of columns of the k-major G and
    H, tested in place: its arrays have the slice's width, and one masked
    pick skips the columns grams.taken marks. With K the resolvent at b',
    (A - b'I)^{-1} = W_sigma^T K W_sigma + d0 I, so for w = L v with columns
    G_p, H_p and Z = K G_p: quadform = G_p^T Z + d0 ||w||^2, and
    y = L^T (A - b'I)^{-1} w has ||y||^2 = Z^T H[sigma, sigma] Z
    + 2 d0 H_p^T Z + d0^2 ||L^T w||^2, two m x k x k products for greedy.
    The blocks' free columns are gathered only when no block has a hit, for
    the error's margins.
    """
    first, grams, k = pivot_rule == PIVOT_FIRST, state.grams, len(state.sigma)
    phi_before, d0, H_ss = at_b.phi, at_bp.d0, grams.Hss[:k, :k]
    # The candidates left below the j-th smallest taken index number gaps[j],
    # so the p-th candidate left is index p + bisect_right(gaps, p).
    gaps = [c - j for j, c in enumerate(grams.ranked)]
    n_left = len(grams.V) - k

    # NaN marks a zero vector: it passes no test.
    blocks, start, size = [], 0, 1 if first else n_left
    with np.errstate(divide="ignore", invalid="ignore"):
        while start < n_left:
            end = min(start + size, n_left)
            lo = start + bisect_right(gaps, start)
            rows = slice(lo, end + bisect_right(gaps, end - 1))
            grams.read(rows.stop)
            G, H, w_sq, free = grams.G[:k, rows], grams.H[:k, rows], grams.g[rows], ~grams.taken[rows]
            Z = K @ G
            y_sq = _col_dots(H_ss @ Z, Z) + 2.0 * d0 * _col_dots(Z, H) + d0 * d0 * grams.h[rows]
            q = np.where(w_sq > 0, _col_dots(Z, G) + d0 * w_sq, np.nan)
            after = at_bp.phi - y_sq / (1.0 + q)
            hit = _pick(q, after, phi_before, first, free)
            if hit is not None:
                scanned = start + int(np.count_nonzero(free[:hit])) + 1 if first else n_left
                return lo + hit, FeasibilityRecord(float(q[hit]), float(after[hit]), True), scanned
            blocks.append((q, after, free))
            start, size = end, 2 * size

    quad, after = (np.concatenate([b[i][b[2]] for b in blocks] or [np.empty(0)]) for i in (0, 1))
    qm, pm = -1.0 - quad, phi_before - after
    score = np.nan_to_num(np.minimum(qm, pm), nan=-np.inf, neginf=-np.inf)
    j = int(np.argmax(score)) if score.max(initial=-np.inf) > -np.inf else None
    margins = (-math.inf, -math.inf) if j is None else (float(qm[j]), float(pm[j]))
    raise InfeasibilityError(
        f"no feasible candidate at step {len(state.sigma) + 1} (best quadform margin "
        f"{margins[0]:.3e}, best potential margin {margins[1]:.3e})",
        best_quadform_margin=margins[0], best_potential_margin=margins[1],
    )


def _check_post_step(old: Spectrum, new: Spectrum, k_next, b_prime, rec) -> AtShift:
    """Runtime invariant checks after a rank-one acceptance, on the spectra of
    A and A + w w^T, both zero past old.poles (k_next - 1 eigenvalues and a 0),
    with the slacks new was built with; returns new.at(b_prime), the next
    step's value at its barrier. The potential is not checked: select_next
    returns a record only when its potential_after_add is at most the
    potential before the step exactly."""
    check_interlacing(old.poles, new.lam, new.tol.interlacing_slack)
    above = int(np.count_nonzero(new.lam > b_prime))
    if above != k_next:
        raise InvariantViolation(
            f"barrier invariant failed at step {k_next}: {above} eigenvalues above "
            f"b'={b_prime:.6g} (expected {k_next})"
        )
    fresh = new.at(b_prime)
    denom = max(abs(fresh.phi), 1.0)
    if abs(fresh.phi - rec.potential_after_add) > new.tol.sm_consistency * denom:
        raise InvariantViolation(
            f"rank-one potential update disagrees with fresh recomputation at step {k_next}: "
            f"{rec.potential_after_add} vs {fresh.phi}"
        )
    return fresh


def _step(state: SelectionState, at_b: AtShift, schedule: Schedule, pivot_rule: str):
    """One barrier step from state, whose spectrum at its barrier b is at_b:
    (the next state, its spectrum at its barrier b', the step's StepTrace)."""
    spec, b, b_prime = state.spectrum, state.barrier_b, state.barrier_b - schedule.delta
    at_bp = spec.at(b_prime)
    K = spec.resolvent_at(at_bp)
    diag = check_step_preconditions(state, schedule, at_b, at_bp, K)
    chosen, rec, scanned = select_next(state, schedule, at_b, at_bp, K, pivot_rule)
    state.grams.append(chosen)
    sigma, new = state.sigma + [chosen], Spectrum.of(state.grams, spec.tol)
    at_next = _check_post_step(spec, new, len(sigma), b_prime, rec)
    trace = StepTrace(len(sigma), chosen, b, b_prime, at_b.phi, rec.potential_after_add,
                      at_bp.phi_image, at_bp.phi_kernel, spec.mass0, scanned,
                      -1.0 - rec.quadform, at_b.phi - rec.potential_after_add, diag)
    return SelectionState(sigma, b_prime, new, state.grams), at_next, trace


def run_selection(
    dec: Decomposition, epsilon: float, pivot_rule: str = PIVOT_FIRST
) -> SelectionResult:
    """Run the full barrier walk and return the selected index list.

    Deterministic for fixed inputs and pivot rule; candidates are scanned in
    index order, so permuted(dec, perm) sets the order. Every step
    records its existence-precondition diagnostics in the traces; the scan
    takes only a candidate whose potential does not increase, and after
    every step the barrier count, eigenvalue interlacing and the rank-one
    update identity are checked on the spectrum from the Gram of the chosen
    rows, which the next step reads. The schedule checks the final barrier
    against the promised bound before the first step. A RinvError raised by
    a step carries, as its traces, the StepTraces of the steps completed
    before it.
    """
    dec, tol = validate(dec), default_tolerances()
    if pivot_rule not in (PIVOT_FIRST, PIVOT_GREEDY):
        raise ParameterError(f"unknown pivot rule {pivot_rule!r}")
    schedule, LtL = _schedule(dec.L, dec.m, epsilon)
    if schedule.vacuous:
        return SelectionResult(sigma=[], schedule=schedule, traces=[])

    grams = Grams.of(dec, capacity=schedule.steps_t, LtL=LtL)
    state = SelectionState([], schedule.b0, Spectrum.of(grams, tol), grams)
    at_b, traces = state.spectrum.at(schedule.b0), []
    try:
        for _ in range(schedule.steps_t):
            state, at_b, trace = _step(state, at_b, schedule, pivot_rule)
            traces.append(trace)
    except RinvError as err:
        err.traces = traces
        raise
    return SelectionResult(sigma=state.sigma, schedule=schedule, traces=traces)
