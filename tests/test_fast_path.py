"""The low-rank selector against a reference walk from the scalar primitives.

The reference forms the dense A, recomputes (A - bI)^{-1} with shifted_inverse
and the potentials with potential and potential_split (each its own eigh of A)
at every step, and tests one candidate at a time with candidate_feasible, the
way the walk is written in the paper. The selector must choose the same sigma
and record the same traces, within tol.sm_consistency.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from rinv import (
    Decomposition,
    compute_schedule,
    default_tolerances,
    random_tight_frame,
    run_selection,
)
import rinv.selector
from rinv.selector import (
    SelectionState,
    candidate_feasible,
    check_step_preconditions,
    potential,
    potential_split,
    select_next,
    shifted_inverse,
)
from rinv.errors import InfeasibilityError
from test_acceptance import EPS_GRID, build_grid

PIVOTS = ("first", "greedy")
TOL = default_tolerances()


def _gram(dec, sigma):
    """A = sum_{i in sigma} (L v_i)(L v_i)^T, formed densely."""
    W = dec.mapped_vectors()[list(sigma)]
    return W.T @ W


def _reference_scan(A, M, L, W, taken, order, phi_b, phi_bp, pivot, slack):
    """One pass of candidate_feasible calls: (index, record, scanned, best margins)."""
    best, scanned, margins = None, 0, (-np.inf, -np.inf)
    for j in order:
        if j in taken:
            continue
        scanned += 1
        rec = candidate_feasible(A, M, L, W[j], phi_b, phi_bp, slack)
        if rec.reason != "zero-vector":
            qm, pm = -1.0 - rec.quadform, phi_b - rec.potential_after_add
            if min(qm, pm) > min(margins):
                margins = (qm, pm)
        if rec.feasible and (best is None or rec.potential_after_add < best[1].potential_after_add):
            best = (j, rec)
            if pivot == "first":
                break
    return (*(best or (None, None)), scanned, margins)


def _reference_preconditions(A, b, sched, L):
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


def reference_walk(dec, epsilon, pivot, scan_order=None):
    """Selected indices and trace dicts of the scalar barrier walk."""
    L, W = dec.L, dec.mapped_vectors()
    sched = compute_schedule(L, dec.m, epsilon)
    order = range(dec.m) if scan_order is None else [int(j) for j in scan_order]
    A, b, sigma, traces = np.zeros((dec.n, dec.n)), sched.b0, [], []
    for k in range(sched.steps_t):
        b_prime = b - sched.delta
        M = shifted_inverse(A, b_prime)
        phi_b, phi_bp = potential(A, b, L), potential(A, b_prime, L)
        phi_P, phi_Q, qL = potential_split(A, b_prime, L)
        chosen, rec, scanned, _ = _reference_scan(A, M, L, W, sigma, order, phi_b, phi_bp,
                                                  pivot, 0.0)
        if chosen is None:
            chosen, rec, retried, _ = _reference_scan(A, M, L, W, sigma, order, phi_b, phi_bp,
                                                      pivot, TOL.feasibility_retry)
            scanned += retried
        traces.append({
            "step": k + 1, "chosen_index": chosen + 1,
            "barrier_before": b, "barrier_after": b_prime,
            "phi_before": phi_b, "phi_after": rec.potential_after_add,
            "phi_image": phi_P, "phi_kernel": phi_Q, "kernel_frob_sq": qL,
            "candidates_scanned": scanned,
            "quadform_margin": -1.0 - rec.quadform,
            "potential_margin": phi_b - rec.potential_after_add,
            "preconditions": _reference_preconditions(A, b, sched, L),
        })
        A = A + np.outer(W[chosen], W[chosen])
        b = b_prime
        sigma.append(chosen)
    return sigma, traces


def _assert_plain(value, expected):
    """Same keys, plain Python int/float/bool values, floats within sm_consistency."""
    if isinstance(expected, dict):
        assert list(value) == list(expected)
        for key in expected:
            _assert_plain(value[key], expected[key])
        return
    assert type(value) is type(expected) and type(value) in (int, float, bool)
    if isinstance(expected, float):
        assert abs(value - expected) <= TOL.sm_consistency * max(1.0, abs(expected))
    else:
        assert value == expected


def _check_against_reference(dec, epsilon, pivot, scan_order=None):
    result = run_selection(dec, epsilon, pivot_rule=pivot, scan_order=scan_order)
    sigma, traces = reference_walk(dec, epsilon, pivot, scan_order)
    assert result.sigma == sigma
    assert all(type(i) is int for i in result.sigma)
    assert len(result.traces) == len(traces)
    for tr, expected in zip(result.traces, traces):
        got = tr.to_dict()
        json.dumps(got)
        _assert_plain(got, expected)
    return len(traces)


@pytest.mark.parametrize("pivot", PIVOTS)
def test_acceptance_grid_matches_reference(pivot):
    steps = 0
    for label, dec in build_grid():
        for eps in EPS_GRID:
            steps += _check_against_reference(dec, eps, pivot)
    assert steps > 0


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("n", [8, 16, 24])
@pytest.mark.parametrize("block", [1, 7, rinv.selector._SCAN_BLOCK])
def test_permuted_scan_order_matches_reference(pivot, n, block, monkeypatch):
    monkeypatch.setattr(rinv.selector, "_SCAN_BLOCK", block)
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    L = Q * np.linspace(1.0, 2.0, n)
    # A zero row keeps the frame tight and is a candidate that must never be chosen.
    V = np.vstack([random_tight_frame(n, 3 * n, n), np.zeros((1, n))])
    dec = Decomposition(L=L, V=V)
    for eps in (0.5, 0.8):
        order = rng.permutation(dec.m)
        assert _check_against_reference(dec, eps, pivot, scan_order=order) > 0


def _ramp_instance(n, m, seed):
    """L = Q diag(linspace(1, 2, n)) on a random tight frame: srank about 0.58 n."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Decomposition(L=Q * np.linspace(1.0, 2.0, n), V=random_tight_frame(n, m, seed))


def _rank_deficient_instance():
    """A ramp L with a zero row and a zero column on a frame holding e_3 / sqrt(2),
    a candidate whose L v is exactly zero."""
    dec = _ramp_instance(24, 24, 5)
    L = dec.L.copy()
    L[0, :] = 0.0
    L[:, 3] = 0.0
    V = np.vstack([dec.V, np.eye(24)]) / np.sqrt(2.0)
    return Decomposition(L=L, V=V)


LOW_RANK_CASES = {
    "ramp-64x128": lambda: _ramp_instance(64, 128, 3),
    "rank-deficient": _rank_deficient_instance,
}


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("case", LOW_RANK_CASES)
def test_low_rank_walk_matches_reference(pivot, case):
    dec = LOW_RANK_CASES[case]()
    for eps in (0.5, 0.8):
        assert _check_against_reference(dec, eps, pivot) > 1


@pytest.mark.parametrize("pivot", PIVOTS)
def test_state_of_prefix_replays_each_step(pivot):
    # A state built from scratch after k steps of a recorded walk must see
    # what the walk saw at step k + 1.
    dec = _ramp_instance(64, 128, 3)
    result = run_selection(dec, 0.5, pivot_rule=pivot)
    assert len(result.traces) > 1
    for k, tr in enumerate(result.traces):
        state = SelectionState.of(dec, result.sigma[:k], tr.barrier_before)
        assert check_step_preconditions(state, result.schedule) == tr.preconditions
        chosen, _, _ = select_next(state, result.schedule, dec, pivot)
        assert chosen == tr.chosen_index


@pytest.mark.parametrize("pivot", PIVOTS)
def test_walk_takes_no_eigh_of_order_n(pivot, monkeypatch):
    orders, interlaced = [], []
    eigh, check_interlacing = np.linalg.eigh, rinv.selector.check_interlacing

    def counting_eigh(a, *args, **kwargs):
        orders.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    def counting_interlacing(before, after, slack):
        interlaced.append((len(before), len(after)))
        return check_interlacing(before, after, slack)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(rinv.selector, "check_interlacing", counting_interlacing)
    dec = _ramp_instance(64, 128, 3)
    result = run_selection(dec, 0.5, pivot_rule=pivot)
    assert len(result.sigma) == result.schedule.steps_t > 1
    assert dec.n not in orders
    # The post-step checks still see every step, on spectra padded to length n.
    assert interlaced == [(dec.n, dec.n)] * result.schedule.steps_t


@pytest.mark.parametrize("pivot", PIVOTS)
def test_walk_evaluates_each_potential_once(pivot, monkeypatch):
    # Phi at b0, then per step Phi at b' before the step and after it; the
    # latter is the next step's Phi at b.
    calls = []
    shifted_spectrum = rinv.selector.shifted_spectrum

    def counting(lam, shift, tol=None):
        calls.append(shift)
        return shifted_spectrum(lam, shift, tol)

    monkeypatch.setattr(rinv.selector, "shifted_spectrum", counting)
    result = run_selection(_ramp_instance(64, 128, 3), 0.5, pivot_rule=pivot)
    t = result.schedule.steps_t
    assert t == 9
    assert len(calls) == 2 * t + 1


def _raised_barrier_state():
    """Two vectors taken and the barrier lifted so far above A that every
    candidate fails the rank test, even with the retry slack."""
    n = 6
    rng = np.random.default_rng(21)
    L = rng.standard_normal((n, n))
    dec = Decomposition(L=L / np.linalg.norm(L, 2), V=random_tight_frame(n, 2 * n, 21))
    W = dec.mapped_vectors()
    sched = compute_schedule(dec.L, dec.m, 0.8)
    b_prime = (np.linalg.eigvalsh(_gram(dec, [0, 1]))[-1]
               + 2.0 * float(np.max(np.sum(W * W, axis=1))))
    return dec, sched, SelectionState.of(dec, [0, 1], b_prime + sched.delta)


def _split_failure_state():
    """A = 0, L = I and b' = 1: the first candidate passes the rank test and
    fails the potential test, the second fails the rank test. The first has
    the larger of its two margins, the second the larger smaller one."""
    dec = Decomposition(L=np.eye(2), V=np.diag(np.sqrt([3.0, 0.5])))
    sched = compute_schedule(dec.L, dec.m, 0.5)
    return dec, sched, SelectionState.of(dec, [], 1.0 + sched.delta)


def _potential_failure_state():
    """A = 0, L = V = I_4 and b' = 0.5, below the schedule's: every candidate
    passes the rank test and fails the potential test, and the averaging
    inequality fails (16 > 32/3) where it would hold at b (64/9)."""
    dec = Decomposition(L=np.eye(4), V=np.eye(4))
    sched = compute_schedule(dec.L, dec.m, 0.5)
    return dec, sched, SelectionState.of(dec, [], 0.5 + sched.delta)


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize(
    "make_state", [_raised_barrier_state, _split_failure_state, _potential_failure_state]
)
def test_infeasible_step_reports_reference_margins(pivot, make_state):
    dec, sched, state = make_state()
    A = _gram(dec, state.sigma)
    diag = check_step_preconditions(state, sched)
    expected = _reference_preconditions(A, state.barrier_b, sched, dec.L)
    assert asdict(diag) == expected
    with pytest.raises(InfeasibilityError) as err:
        select_next(state, sched, dec, pivot)
    b_prime = state.barrier_b - sched.delta
    M = shifted_inverse(A, b_prime)
    phi_b, phi_bp = potential(A, state.barrier_b, dec.L), potential(A, b_prime, dec.L)
    W = dec.mapped_vectors()
    for slack in (0.0, TOL.feasibility_retry):
        chosen, _, scanned, margins = _reference_scan(A, M, dec.L, W, state.sigma,
                                                      range(dec.m), phi_b, phi_bp, pivot, slack)
        assert chosen is None and scanned == dec.m - len(state.sigma)
    assert err.value.best_quadform_margin == pytest.approx(margins[0], rel=1e-9)
    assert err.value.best_potential_margin == pytest.approx(margins[1], rel=1e-9)
    assert min(margins) < 0 < max(margins)


@pytest.mark.parametrize("pivot, scanned", [("first", 3 + 1), ("greedy", 3 + 3)])
def test_retry_pass_accepts_within_slack_and_counts_both_passes(pivot, scanned):
    # A = 0, L = I, unit candidates: every quadform is -1/b', just above -1.
    dec = Decomposition(L=np.eye(3), V=np.eye(3))
    sched = compute_schedule(dec.L, dec.m, 0.5)
    b_prime = 1.0 / (1.0 - 1e-10)
    state = SelectionState.of(dec, [], b_prime + sched.delta)
    chosen, rec, got_scanned = select_next(state, sched, dec, pivot)
    assert (chosen, got_scanned) == (0, scanned)
    assert -1.0 < rec.quadform < -1.0 + TOL.feasibility_retry
    A, bp = np.zeros((3, 3)), state.barrier_b - sched.delta
    M = shifted_inverse(A, bp)
    phi_b, phi_bp = potential(A, state.barrier_b, dec.L), potential(A, bp, dec.L)
    exact = candidate_feasible(A, M, dec.L, np.eye(3)[0], phi_b, phi_bp)
    retry = candidate_feasible(A, M, dec.L, np.eye(3)[0], phi_b, phi_bp,
                               TOL.feasibility_retry)
    assert (exact.feasible, exact.reason, retry.feasible) == (False, "rank-test", True)
    assert rec.quadform == pytest.approx(retry.quadform, rel=1e-12)
