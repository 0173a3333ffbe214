"""Test helpers: the scalar barrier walk, as the paper writes it, and the
walk's state rebuilt from a list of chosen indices.

reference_walk forms the dense A, recomputes (A - bI)^{-1} with
shifted_inverse and the potentials with potential and potential_split (each
its own eigh of A) at every step, and tests one candidate at a time with
candidate_feasible. state_of reads and appends sigma's Gram rows in the
order given, so a test can stand at any step without walking to it.
"""

import numpy as np

from rinv import compute_schedule, default_tolerances
from rinv.decomposition import checked_indices
from rinv.selector import (
    Grams,
    SelectionState,
    Spectrum,
    candidate_feasible,
    potential,
    potential_split,
    shifted_inverse,
)

TOL = default_tolerances()


def grams_of(dec, sigma):
    """The Grams of dec with sigma's rows read and appended in the order given."""
    grams = Grams.of(dec, capacity=len(sigma))
    for i in sigma:
        grams.read(i + 1)
        grams.append(i)
    return grams


def state_of(dec, sigma, barrier_b):
    """The walk's state after choosing sigma, with the barrier at barrier_b.
    IndexRangeError unless sigma holds distinct integers in [0, m): a list
    such as [0.7, 2.9] is not read as [0, 2]."""
    sigma = checked_indices(sigma, dec.m, "sigma").tolist()
    grams = grams_of(dec, sigma)
    return SelectionState(barrier_b, Spectrum.of(grams, TOL), grams)


def shift_values(state, schedule):
    """state.spectrum at the barrier b and at b' = b - delta, and the
    resolvent at b': the values a walk step hands to check_step_preconditions
    and select_next."""
    spec = state.spectrum
    at_bp = spec.at(state.barrier_b - schedule.delta)
    return spec.at(state.barrier_b), at_bp, spec.resolvent_at(at_bp)


def dense_gram(dec, sigma):
    """A = sum_{i in sigma} (L v_i)(L v_i)^T, formed densely."""
    W = (dec.V @ dec.L.T)[list(sigma)]
    return W.T @ W


def reference_scan(A, M, L, W, taken, phi_b, phi_bp, pivot):
    """One pass of candidate_feasible calls in index order: (index, record,
    scanned, best margins)."""
    best, scanned, margins = None, 0, (-np.inf, -np.inf)
    for j in range(len(W)):
        if j in taken:
            continue
        scanned += 1
        rec = candidate_feasible(A, M, L, W[j], phi_b, phi_bp)
        if rec.reason != "zero-vector":
            qm, pm = -1.0 - rec.quadform, phi_b - rec.potential_after_add
            if min(qm, pm) > min(margins):
                margins = (qm, pm)
        if rec.feasible and (best is None or rec.potential_after_add < best[1].potential_after_add):
            best = (j, rec)
            if pivot == "first":
                break
    return (*(best or (None, None)), scanned, margins)


def reference_preconditions(A, b, sched, L):
    """check_step_preconditions' four flags at barrier b, from the dense A."""
    b_prime = b - sched.delta
    M = shifted_inverse(A, b_prime)
    phi_b, phi_bp = potential(A, b, L), potential(A, b_prime, L)
    _, _, qL = potential_split(A, b_prime, L)
    slack = TOL.precondition_slack
    target = -sched.m - sched.spec_sq / sched.delta
    rhs_kernel = sched.delta * qL / sched.spec_sq
    T = L.T @ M @ L
    rhs = (phi_b - phi_bp) * (-sched.m - phi_bp)
    return {
        "potential_ok": phi_b <= target + slack * abs(target),
        "barrier_window_ok": 0.0 < sched.delta < b,
        "kernel_mass_ok": b <= rhs_kernel + slack * abs(rhs_kernel),
        "averaging_ok": float(np.sum(T * T)) <= rhs + slack * abs(rhs),
    }


def reference_walk(dec, epsilon, pivot):
    """Selected indices and trace dicts of the scalar barrier walk."""
    L, W = dec.L, dec.V @ dec.L.T
    sched = compute_schedule(L, dec.m, epsilon)
    A, b, sigma, traces = np.zeros((dec.n, dec.n)), sched.b0, [], []
    for k in range(sched.steps_t):
        b_prime = b - sched.delta
        M = shifted_inverse(A, b_prime)
        phi_b, phi_bp = potential(A, b, L), potential(A, b_prime, L)
        phi_P, phi_Q, qL = potential_split(A, b_prime, L)
        chosen, rec, scanned, _ = reference_scan(A, M, L, W, sigma, phi_b, phi_bp, pivot)
        traces.append({
            "step": k + 1, "chosen_index": chosen + 1,
            "barrier_before": b, "barrier_after": b_prime,
            "phi_before": phi_b, "phi_after": rec.potential_after_add,
            "phi_image": phi_P, "phi_kernel": phi_Q, "kernel_frob_sq": qL,
            "candidates_scanned": scanned,
            "quadform_margin": -1.0 - rec.quadform,
            "potential_margin": phi_b - rec.potential_after_add,
            "preconditions": reference_preconditions(A, b, sched, L),
        })
        A = A + np.outer(W[chosen], W[chosen])
        b = b_prime
        sigma.append(chosen)
    return sigma, traces
