"""Barrier-driven subset selection.

The selector grows A = sum_{i in sigma} (L v_i)(L v_i)^T one rank-one
update at a time while sliding a barrier b downward by a fixed delta per
step. The potential tr(L^T (A - bI)^{-1} L) never increases; every nonzero
eigenvalue of A stays above the barrier, which at the end sits above
(1 - eps)^2 ||L||_F^2 / m.

A has rank k <= t after k steps, so a step's Spectrum holds only the k
nonzero eigenpairs, from a thin SVD of the k chosen rows L v_i, plus an
implicit zero block on the other n - k directions. The walk reads every
potential, candidate test, diagnostic and trace value from it, and the
spectrum of the k + 1 rows taken after the step is the next step's;
potential and potential_split are references from one eigh of a dense A.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .decomposition import Decomposition, validate
from .errors import (
    InfeasibilityError,
    InvariantViolation,
    ParameterError,
    ZeroOperatorError,
)
from .matrix_core import (
    check_interlacing,
    frobenius_norm_sq,
    shifted_inverse,
    shifted_spectrum,
    spectral_norm,
    sym_eigendecomposition,
)
from .tolerances import Tolerances, default_tolerances

PIVOT_FIRST = "first"
PIVOT_GREEDY = "greedy"
# Candidates tested per block of the scan: bounds its (block x n) temporaries,
# and a first-feasible scan stops after the first block holding a hit.
_SCAN_BLOCK = 128


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


def _kernel_band(lam: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Eigenvalues of A at or below kernel_threshold * max(1, ||A||)."""
    return lam <= tol.kernel_threshold * max(1.0, float(np.abs(lam).max(initial=0.0)))


@dataclass(frozen=True)
class Spectrum:
    """A = U diag(lam) U^T on k explicit eigenpairs (lam descending) plus an
    implicit zero block on the n0 = n - k directions orthogonal to U, seen
    through L: LtU = L^T U, column masses mass_j = ||L^T u_j||^2, the block's
    mass mass0 = ||L||_F^2 - sum(mass), and LtL = L^T L. The kernel band is
    the block together with the explicit lam_j in _kernel_band."""

    lam: np.ndarray
    LtU: np.ndarray
    mass: np.ndarray
    kernel: np.ndarray
    n0: int
    mass0: float
    LtL: np.ndarray

    @classmethod
    def of_rows(cls, W, L, LtL, tol: Tolerances) -> "Spectrum":
        """A = W^T W from a thin SVD W^T = U diag(s) P^T of its k x n rows W:
        lam = s^2, and U is orthonormal by construction."""
        U, s, _ = np.linalg.svd(W.T, full_matrices=False)
        lam = s * s
        LtU = L.T @ U
        mass = np.sum(LtU * LtU, axis=0)
        n0 = U.shape[0] - U.shape[1]
        mass0 = float(np.trace(LtL) - np.sum(mass)) if n0 else 0.0
        return cls(lam, LtU, mass, _kernel_band(lam, tol), n0, mass0, LtL)

    def padded(self) -> np.ndarray:
        """All n eigenvalues: lam followed by the block's n0 zeros."""
        return np.concatenate([self.lam, np.zeros(self.n0)])

    def at(self, shift: float, tol: Tolerances) -> AtShift:
        """Phi = sum_j mass_j / (lam_j - shift) - mass0 / shift and its split;
        SingularShiftError when the shift sits on an eigenvalue, the block's 0 included."""
        k = len(self.lam)
        # A nonempty block adds the one eigenvalue 0 to the shift-gap check.
        d = shifted_spectrum(np.append(self.lam, np.zeros(min(self.n0, 1))), shift, tol)
        d, d0 = d[:k], float(np.sum(d[k:]))
        terms = self.mass * d
        kernel_mass = float(np.sum(self.mass[self.kernel])) + self.mass0
        return AtShift(d, d0, float(np.sum(terms)) + self.mass0 * d0,
                       float(np.sum(terms[~self.kernel])), -kernel_mass / shift, kernel_mass)


@dataclass(frozen=True)
class SelectionState:
    """Running state: chosen indices, current barrier, and the spectrum of
    A = sum_{i in sigma} (L v_i)(L v_i)^T."""

    sigma: List[int]
    barrier_b: float
    spectrum: Spectrum

    @classmethod
    def of(cls, dec: Decomposition, sigma: Sequence[int], barrier_b: float,
           tol: Tolerances | None = None) -> "SelectionState":
        """The state after choosing sigma, with the barrier at barrier_b."""
        tol = tol or default_tolerances()
        L = np.asarray(dec.L, dtype=float)
        sigma = [int(i) for i in sigma]
        return cls(sigma, barrier_b, Spectrum.of_rows(dec.V[sigma] @ L.T, L, L.T @ L, tol))


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


def compute_schedule(L, m: int, epsilon: float, tol: Tolerances | None = None) -> Schedule:
    """Barrier schedule for operator L and m candidate vectors.

    b0 = (1-eps) ||L||_F^2 / m, delta = (1-eps) ||L||_2^2 / (eps m), and
    t = floor(eps^2 ||L||_F^2 / ||L||_2^2). When eps^2 times the stable
    rank is below 1 the schedule is vacuous (t = 0).
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    L = np.asarray(L, dtype=float)
    spec = spectral_norm(L)
    if spec == 0.0:
        raise ZeroOperatorError("cannot schedule the zero operator")
    frob_sq = frobenius_norm_sq(L)
    spec_sq = spec * spec
    srank = frob_sq / spec_sq
    t = int(math.floor(epsilon * epsilon * srank))
    b0 = (1.0 - epsilon) * frob_sq / m
    delta = (1.0 - epsilon) * spec_sq / (epsilon * m)
    if t >= 1 and not t * delta < b0:
        raise InvariantViolation(
            f"schedule inconsistent: t*delta = {t * delta} >= b0 = {b0}"
        )
    return Schedule(
        epsilon=epsilon, b0=b0, delta=delta, steps_t=t, m=m,
        frob_sq=frob_sq, spec_sq=spec_sq,
    )


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
    kernel = _kernel_band(lam, tol)
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
    at_b, at_bp = spec.at(b, tol), spec.at(b - schedule.delta, tol)
    slack = tol.precondition_slack

    target = -schedule.m - schedule.spec_sq / schedule.delta
    potential_ok = at_b.phi <= target + slack * abs(target)

    barrier_window_ok = 0.0 < schedule.delta < b

    rhs_kernel = schedule.delta * at_bp.kernel_mass / schedule.spec_sq
    kernel_mass_ok = b <= rhs_kernel + slack * abs(rhs_kernel)

    # L^T (A - b'I)^{-1} L, with (A - b'I)^{-1} = U diag(d - d0) U^T + d0 I
    T = (spec.LtU * (at_bp.d - at_bp.d0)) @ spec.LtU.T + at_bp.d0 * spec.LtL
    lhs = float(np.sum(T * T))
    rhs = (at_b.phi - at_bp.phi) * (-schedule.m - at_bp.phi)
    averaging_ok = lhs <= rhs + slack * abs(rhs)

    return PreconditionDiagnostics(potential_ok, barrier_window_ok, kernel_mass_ok, averaging_ok)


def _pick(quad, after, phi_before: float, slack: float, first: bool):
    """Scan position of the chosen candidate (None if none passes), candidates scanned."""
    ok = (quad < -1.0 + slack) & (after <= phi_before + slack * abs(phi_before))
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None, len(quad)
    if first:
        return int(hits[0]), int(hits[0]) + 1
    return int(hits[np.argmin(after[hits])]), len(quad)


def select_next(
    state: SelectionState,
    schedule: Schedule,
    dec: Decomposition,
    pivot_rule: str = PIVOT_FIRST,
    tol: Tolerances | None = None,
    scan_order: Optional[Sequence[int]] = None,
):
    """Choose the next index to add at the lowered barrier b - delta.

    FirstFeasible returns the earliest feasible index in scan order;
    GreedyMinPotential the feasible index with smallest updated potential,
    ties broken by scan order. Raises InfeasibilityError when nothing
    passes even with the retry slack.

    Blocks of candidates are tested at once. With w = L v, W U = V L^T U and
    (A - b'I)^{-1} = U diag(d - d0) U^T + d0 I:
    quadform = sum (W U)^2 (d - d0) + d0 ||w||^2, and L^T (A - b'I)^{-1} w is
    a row of (W U (d - d0)) (L^T U)^T + d0 V L^T L. The retry pass re-reads
    them with slack.
    """
    tol = tol or default_tolerances()
    if pivot_rule not in (PIVOT_FIRST, PIVOT_GREEDY):
        raise ParameterError(f"unknown pivot rule {pivot_rule!r}")
    first = pivot_rule == PIVOT_FIRST
    spec = state.spectrum
    b_prime = state.barrier_b - schedule.delta
    phi_before = spec.at(state.barrier_b, tol).phi
    at_bp = spec.at(b_prime, tol)
    d_image = at_bp.d - at_bp.d0
    order = np.arange(dec.m) if scan_order is None else np.asarray(scan_order, dtype=int)
    order = order[~np.isin(order, state.sigma)]

    # NaN marks a candidate not reached, or a zero vector: it passes no test.
    quad = np.full(len(order), np.nan)
    after = np.full(len(order), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(order), _SCAN_BLOCK):
            block = slice(start, start + _SCAN_BLOCK)
            V = dec.V[order[block]]
            WU, VG = V @ spec.LtU, V @ spec.LtL
            w_sq = np.sum(V * VG, axis=1)
            Y = (WU * d_image) @ spec.LtU.T + at_bp.d0 * VG
            quad[block] = q = np.where(w_sq > 0, (WU * WU) @ d_image + at_bp.d0 * w_sq, np.nan)
            after[block] = at_bp.phi - np.sum(Y * Y, axis=1) / (1.0 + q)
            if first and _pick(q, after[block], phi_before, 0.0, first)[0] is not None:
                break

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
    return int(order[pos]), rec, scanned, phi_before, at_bp.phi, b_prime


def _check_post_step(old: Spectrum, new: Spectrum, k_next, b_prime, rec, phi_before, tol):
    """Runtime invariant checks after a rank-one acceptance, on the spectra of A and A + w w^T."""
    check_interlacing(old.padded(), new.padded(), tol.interlacing_slack)
    above = int(np.sum(new.lam > b_prime))
    below = int(np.sum(new.kernel)) + new.n0
    n = len(new.lam) + new.n0
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
    phi_fresh = new.at(b_prime, tol).phi
    denom = max(abs(phi_fresh), 1.0)
    if abs(phi_fresh - rec.potential_after_add) > tol.sm_consistency * denom:
        raise InvariantViolation(
            "rank-one potential update disagrees with fresh recomputation: "
            f"{rec.potential_after_add} vs {phi_fresh}"
        )


def run_selection(
    dec: Decomposition,
    epsilon: float,
    pivot_rule: str = PIVOT_FIRST,
    tol: Tolerances | None = None,
    scan_order: Optional[Sequence[int]] = None,
) -> SelectionResult:
    """Run the full barrier walk and return the selected index list.

    Deterministic for fixed inputs, pivot rule, and scan order. Every step
    records its existence-precondition diagnostics in the traces, and after
    every step the barrier count, eigenvalue interlacing, potential
    monotonicity and the rank-one update identity are checked on the
    spectrum of the chosen rows, which the next step reads; the final
    barrier is checked against the promised bound.
    """
    tol = tol or default_tolerances()
    dec = validate(dec, tol)
    schedule = compute_schedule(dec.L, dec.m, epsilon, tol)
    if schedule.vacuous:
        return SelectionResult(sigma=[], schedule=schedule)

    L = np.asarray(dec.L, dtype=float)
    state = SelectionState.of(dec, [], schedule.b0, tol)
    rows = np.empty((0, dec.n))  # the chosen L v_i
    traces: List[StepTrace] = []

    for _ in range(schedule.steps_t):
        spec = state.spectrum
        diag = check_step_preconditions(state, schedule, tol)
        chosen, rec, scanned, phi_before, _, b_prime = select_next(
            state, schedule, dec, pivot_rule, tol, scan_order
        )
        rows = np.vstack([rows, dec.V[chosen] @ L.T])
        spec_new = Spectrum.of_rows(rows, L, spec.LtL, tol)
        step = len(state.sigma) + 1
        _check_post_step(spec, spec_new, step, b_prime, rec, phi_before, tol)
        split = spec.at(b_prime, tol)
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
        state = SelectionState(state.sigma + [chosen], b_prime, spec_new)

    final_b = schedule.b0 - schedule.delta * schedule.steps_t
    if final_b < schedule.guarantee_bound - 1e-12 * abs(schedule.guarantee_bound):
        raise InvariantViolation(
            f"final barrier {final_b} fell below the promised bound "
            f"{schedule.guarantee_bound}"
        )
    return SelectionResult(sigma=state.sigma, schedule=schedule, traces=traces)
