"""The low-rank selector against a reference walk from the scalar primitives.

The reference forms the dense A, recomputes (A - bI)^{-1} with shifted_inverse
and the potentials with potential and potential_split (each its own eigh of A)
at every step, and tests one candidate at a time with candidate_feasible, the
way the walk is written in the paper. The selector must choose the same sigma
and record the same traces, within tol.sm_consistency.
"""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from rinv import (
    Decomposition,
    compute_schedule,
    default_tolerances,
    permuted,
    random_tight_frame,
    run_selection,
    verify,
)
import rinv.selector
from rinv.selector import (
    Grams,
    SelectionState,
    Spectrum,
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


def _reference_scan(A, M, L, W, taken, phi_b, phi_bp, pivot, slack):
    """One pass of candidate_feasible calls in index order: (index, record,
    scanned, best margins)."""
    best, scanned, margins = None, 0, (-np.inf, -np.inf)
    for j in range(len(W)):
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


def reference_walk(dec, epsilon, pivot):
    """Selected indices and trace dicts of the scalar barrier walk."""
    L, W = dec.L, dec.mapped_vectors()
    sched = compute_schedule(L, dec.m, epsilon)
    A, b, sigma, traces = np.zeros((dec.n, dec.n)), sched.b0, [], []
    for k in range(sched.steps_t):
        b_prime = b - sched.delta
        M = shifted_inverse(A, b_prime)
        phi_b, phi_bp = potential(A, b, L), potential(A, b_prime, L)
        phi_P, phi_Q, qL = potential_split(A, b_prime, L)
        chosen, rec, scanned, _ = _reference_scan(A, M, L, W, sigma, phi_b, phi_bp,
                                                  pivot, 0.0)
        if chosen is None:
            chosen, rec, retried, _ = _reference_scan(A, M, L, W, sigma, phi_b, phi_bp,
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


def _check_against_reference(dec, epsilon, pivot):
    result = run_selection(dec, epsilon, pivot_rule=pivot)
    sigma, traces = reference_walk(dec, epsilon, pivot)
    assert result.sigma == sigma
    assert all(type(i) is int for i in result.sigma)
    assert len(result.traces) == len(traces)
    for tr, expected in zip(result.traces, traces):
        got = tr.to_dict()
        json.dumps(got)
        _assert_plain(got, expected)
    return result


@pytest.mark.parametrize("pivot", PIVOTS)
def test_acceptance_grid_matches_reference(pivot):
    steps = 0
    for label, dec in build_grid():
        for eps in EPS_GRID:
            steps += len(_check_against_reference(dec, eps, pivot).traces)
    assert steps > 0


def _padded_frame_instance(n):
    """A ramp L on a tight frame of 3n vectors, n tiny ones and 128 zero rows.

    The tiny vectors (squared norm 1e-3) and the zero rows fail the
    rank test at every step, whatever was chosen before: returns the
    decomposition and their indices."""
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V = np.vstack([np.sqrt(0.999) * random_tight_frame(n, 3 * n, n),
                   np.sqrt(0.001) * random_tight_frame(n, n, n + 1), np.zeros((128, n))])
    return Decomposition(L=Q * np.linspace(1.0, 2.0, n), V=V), np.arange(3 * n, 4 * n + 128)


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("n", [8, 16, 24])
@pytest.mark.parametrize("block", [1, 7, 128, "nowhere"])
def test_permuted_scan_order_matches_reference(pivot, n, block):
    # The walk scans in index order, so permuted(dec, order) scans dec in
    # order. First-feasible tests blocks of 1, 2, 4, ... With block = s the
    # first hit of step 0 sits at position s - 1, after s - 1 failing
    # vectors: the first block (s = 1), the last slot of the third (positions
    # 3-6) or the first slot of the eighth (positions 127-254), so the scan
    # reads exactly s candidates. "nowhere" raises the barrier above every
    # candidate, zero rows included: the scan takes the retry pass and then
    # raises with the reference margins.
    dec, failing = _padded_frame_instance(n)
    rng = np.random.default_rng(n + 1)
    if block == "nowhere":
        dec = permuted(dec, rng.permutation(dec.m))
        for eps in (0.5, 0.8):
            _check_infeasible_state(pivot, dec, *_raised_barrier(dec, [], eps))
        return
    order = np.concatenate([failing[:block - 1], rng.permutation(3 * n), failing[block - 1:]])
    for eps in (0.5, 0.8):
        result = _check_against_reference(permuted(dec, order), eps, pivot)
        assert result.sigma and not np.isin(order[result.sigma], failing).any()
        scanned = [tr.candidates_scanned for tr in result.traces]
        if pivot == "first":
            assert scanned[0] == block and min(scanned) >= block


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
        assert len(_check_against_reference(dec, eps, pivot).traces) > 1


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
        chosen, _, _ = select_next(state, result.schedule, pivot)
        assert chosen == tr.chosen_index


def _duplicate_state(case):
    """A LOW_RANK_CASES walk's first two indices and a copy of the first,
    appended as a last row of V: the chosen Gram is singular, so the
    spectrum's kernel band is not empty."""
    dec = LOW_RANK_CASES[case]()
    sigma = run_selection(dec, 0.5).sigma[:2]
    dec = Decomposition(L=dec.L, V=np.vstack([dec.V, dec.V[sigma[0]]]))
    sched = compute_schedule(dec.L, dec.m, 0.5)
    return dec, sched, SelectionState.of(dec, sigma + [dec.m - 1], sched.b0 - 3 * sched.delta)


def _padded_scan_state(k):
    """The padded frame instance with the first k indices of its walk taken,
    permuted into an order that starts with failing vectors, zero rows among
    them, and puts the taken ones at positions 2, 5 and 8. First-feasible
    reads the candidates left at positions 1 and 3 as the slice 1-3, and
    those at 4, 6, 7 and 9 as the slice 4-9, so both slices hold taken rows."""
    dec, failing = _padded_frame_instance(32)
    sigma = run_selection(dec, 0.5).sigma[:k]
    rest = np.setdiff1d(np.arange(dec.m), np.concatenate([failing, sigma]))
    front = failing[::-1][:12].tolist()  # zero rows, the last ones of V
    for position, i in zip((2, 5, 8), sigma):
        front.insert(position, i)
    order = np.array(front + np.setdiff1d(failing, front).tolist()
                     + np.random.default_rng(4).permutation(rest).tolist())
    sched = compute_schedule(dec.L, dec.m, 0.5)
    dec, sigma = permuted(dec, order), np.argsort(order)[sigma].tolist()
    grams = Grams.of(dec, sigma)
    state = SelectionState(sigma, sched.b0 - k * sched.delta, Spectrum.of(grams, TOL), grams)
    return dec, sched, state


HARD_STATES = {
    "kernel-band-ramp": lambda: _duplicate_state("ramp-64x128"),
    "kernel-band-rank-deficient": lambda: _duplicate_state("rank-deficient"),
    "zero-rows-first": lambda: _padded_scan_state(0),
    "taken-in-blocks": lambda: _padded_scan_state(3),
}


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("make_state", HARD_STATES)
def test_resolvent_scan_matches_reference_on_hard_states(pivot, make_state, monkeypatch):
    # select_next's arrays, read at slack 0 and at the retry slack, against
    # one candidate_feasible call per candidate in index order.
    dec, sched, state = HARD_STATES[make_state]()
    grams, first = state.grams, pivot == "first"
    if make_state.startswith("kernel-band"):
        assert len(state.spectrum.lam) < len(state.sigma)
    if make_state == "taken-in-blocks":
        assert grams.cols == [2, 5, 8]
    picks, pick = [], rinv.selector._pick

    def spy(quad, after, phi_before, slack, first):
        picks.append((quad.copy(), after.copy(), phi_before, slack))
        return pick(quad, after, phi_before, slack, first)

    monkeypatch.setattr(rinv.selector, "_pick", spy)
    chosen = select_next(state, sched, pivot)[0]
    left = np.setdiff1d(np.arange(dec.m), grams.cols)
    # The arrays of every block tested at slack 0, in scan order, laid end to
    # end: greedy's one block, or first-feasible's blocks up to its hit. NaN
    # marks the candidates no block reached.
    blocks = [p for p in picks if p[3] == 0.0]
    phi_before, scan_read = blocks[0][2], sum(len(p[0]) for p in blocks)
    quad, after = np.full(len(left), np.nan), np.full(len(left), np.nan)
    quad[:scan_read] = np.concatenate([p[0] for p in blocks])
    after[:scan_read] = np.concatenate([p[1] for p in blocks])

    A, b_prime = _gram(dec, state.sigma), state.barrier_b - sched.delta
    M, W = shifted_inverse(A, b_prime), dec.mapped_vectors()
    phi_b, phi_bp = potential(A, state.barrier_b, dec.L), potential(A, b_prime, dec.L)
    picked = []
    for slack in (0.0, TOL.feasibility_retry):
        pos, scanned = pick(quad, after, phi_before, slack, first)
        want, rec, want_scanned, _ = _reference_scan(A, M, dec.L, W, state.sigma, phi_b, phi_bp,
                                                     pivot, slack)
        assert want is not None and (int(left[pos]), scanned) == (want, want_scanned)
        np.testing.assert_allclose([quad[pos], after[pos]],
                                   [rec.quadform, rec.potential_after_add], rtol=1e-10)
        picked.append(want)
    assert chosen == picked[0]

    # Every candidate of the blocks read (blocks of 1, 2, 4, ... for
    # first-feasible, as in test_grams_filled_on_read_match_dense) is tested:
    # zero vectors are NaN, the rest match the reference.
    scanned = pick(quad, after, phi_before, 0.0, first)[1]
    read = min(2 ** scanned.bit_length() - 1, len(left)) if first else len(left)
    assert scan_read == read
    tested, zero = np.flatnonzero(np.isfinite(after)), ~W[left].any(axis=1)
    assert np.isnan(quad[zero]).all() and np.isnan(after[zero]).all()
    assert tested.tolist() == np.flatnonzero(~zero[:read]).tolist()
    ref = np.array([[r.quadform, r.potential_after_add] for r in
                    (candidate_feasible(A, M, dec.L, W[i], phi_b, phi_bp) for i in left[tested])])
    np.testing.assert_allclose(np.column_stack([quad[tested], after[tested]]), ref,
                               rtol=1e-10, atol=1e-12 * np.abs(ref).max())


def _recorded_walk(dec, eps, pivot, monkeypatch):
    """run_selection with each step's state, the indices left to it,
    select_next's candidates scanned and the Grams' reach after the call."""
    steps, select_next = [], rinv.selector.select_next

    def spy(state, *args):
        grams = state.grams
        left = np.setdiff1d(np.arange(dec.m), grams.cols)
        chosen, rec, scanned = select_next(state, *args)
        steps.append((state, left, scanned, grams.reach))
        return chosen, rec, scanned

    monkeypatch.setattr(rinv.selector, "select_next", spy)
    return run_selection(dec, eps, pivot_rule=pivot), steps


@pytest.mark.parametrize("pivot", PIVOTS)
def test_grams_filled_on_read_match_dense(pivot, monkeypatch):
    # The Grams hold columns in index order, filled on first read up to
    # reach, and rows in the order sigma was chosen. The walk runs on dec
    # permuted by order, so its index p is dec's order[p]. Every filled entry
    # must equal dec's dense V LtL V^T, VG VG^T and row norms, and the chosen
    # rows and k x k blocks their entries at sigma.
    dec = _ramp_instance(64, 256, 7)
    order = np.random.default_rng(8).permutation(dec.m)
    result, steps = _recorded_walk(permuted(dec, order), 0.5, pivot, monkeypatch)
    grams = steps[-1][0].grams
    assert len(result.sigma) == result.schedule.steps_t > 1
    assert grams.cols == result.sigma
    VG = dec.V @ dec.L.T @ dec.L
    G, H = VG @ dec.V.T, VG @ VG.T
    rows, s, k = order[:grams.reach], order[result.sigma], len(result.sigma)
    VG_s = VG[s]
    J = VG_s @ dec.L.T @ dec.L @ VG_s.T
    for got, want in [(grams.G[:k, :grams.reach], G[np.ix_(s, rows)]),
                      (grams.H[:k, :grams.reach], H[np.ix_(s, rows)]),
                      (grams.CV[:k], VG_s), (grams.Gss[:k, :k], G[np.ix_(s, s)]),
                      (grams.Hss[:k, :k], H[np.ix_(s, s)]), (grams.J[:k, :k], J)]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(grams.g[:grams.reach], np.diag(G)[rows], rtol=1e-12)
    np.testing.assert_allclose(grams.h[:grams.reach], np.diag(H)[rows], rtol=1e-12)
    if pivot == "greedy":
        # One scan of every candidate at step 0.
        assert [reach for *_, reach in steps] == [dec.m] * k
        return
    # First-feasible reads blocks of 1, 2, 4, ... of the positions left and
    # stops after the block of its hit: s scanned means 2^b - 1 read, with b
    # the bit length of s. Reach never passes the last position read.
    reach = 0
    for _, left, scanned, after in steps:
        last = left[min(2 ** scanned.bit_length() - 1, len(left)) - 1]
        reach = max(reach, last + 1)
        assert after <= reach
    assert grams.reach < 2 * k < dec.m // 8  # about t, where greedy reads all m


def test_append_fills_rows_in_place():
    # Once every column is read, append writes the new rows of G and H
    # straight into the k-major store: no length-m temporary.
    m = 4096
    dec = _ramp_instance(16, m, 3)
    grams = Grams.of(dec, capacity=2)
    grams.read(m)
    grams.append(0)
    tracemalloc.start()
    try:
        grams.append(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m
    VG = dec.V @ dec.L.T @ dec.L
    np.testing.assert_allclose(grams.G[:2], VG[:2] @ dec.V.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grams.H[:2], VG[:2] @ VG.T, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("pivot", PIVOTS)
def test_state_of_matches_walk_under_scan_order(pivot, monkeypatch):
    # The walk scans dec permuted by order; SelectionState.of reads sigma's
    # rows of dec, mapped back through order, in their own order. Both must
    # see the same spectrum and J.
    dec = _ramp_instance(64, 256, 7)
    order = np.random.default_rng(9).permutation(dec.m)
    result, steps = _recorded_walk(permuted(dec, order), 0.5, pivot, monkeypatch)
    assert sorted(order[result.sigma]) != order[result.sigma].tolist()
    for state, *_ in steps:
        fresh = SelectionState.of(dec, order[state.sigma], state.barrier_b)
        k = len(state.sigma)
        pairs = [(fresh.spectrum.lam, state.spectrum.lam), (fresh.spectrum.M, state.spectrum.M),
                 (fresh.grams.J[:k, :k], state.grams.J[:k, :k])]
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=1e-10,
                                       atol=1e-12 * np.abs(want).max(initial=1.0))
        assert fresh.spectrum.n0 == state.spectrum.n0
        assert fresh.spectrum.mass0 == pytest.approx(state.spectrum.mass0, rel=1e-10)


@pytest.mark.parametrize("pivot", PIVOTS)
def test_walk_takes_no_eigh_of_order_n(pivot, monkeypatch, empty_schedule_cache):
    # Each spectrum is one eigh of the k x k Gram of the chosen rows, and the
    # schedule one eigvalsh of L^T L; nothing takes an SVD. np.linalg.norm
    # calls the svd of numpy's implementation module, so that is counted too.
    orders = {"eigh": [], "eigvalsh": [], "svd": []}
    interlaced = []
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    check_interlacing = rinv.selector.check_interlacing

    for name, calls in orders.items():
        def counting(a, *args, _fn=getattr(np.linalg, name), _calls=calls, **kwargs):
            _calls.append(np.shape(a)[-1])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setattr(impl, name, counting)

    def counting_interlacing(before, after, slack):
        interlaced.append((len(before), len(after)))
        return check_interlacing(before, after, slack)

    monkeypatch.setattr(rinv.selector, "check_interlacing", counting_interlacing)
    dec = _ramp_instance(64, 128, 3)
    result = run_selection(dec, 0.5, pivot_rule=pivot)
    t = result.schedule.steps_t
    assert len(result.sigma) == t > 1
    assert orders == {"eigh": list(range(t + 1)), "eigvalsh": [dec.n], "svd": []}
    # The post-step checks still see every step: step s compares s - 1 and s
    # explicit eigenvalues on their first s + 1 entries.
    assert interlaced == [(s + 1, s + 1) for s in range(1, t + 1)]

    # verify of the same L reuses the schedule's ||L||_2^2 and takes only the
    # eigvalsh of the t x t Gram; after another L is scheduled it takes its own.
    for calls in orders.values():
        calls.clear()
    verify(dec, 0.5, result.sigma)
    assert orders == {"eigh": [], "eigvalsh": [t], "svd": []}
    compute_schedule(2.0 * dec.L, dec.m, 0.5)
    for calls in orders.values():
        calls.clear()
    verify(dec, 0.5, result.sigma)
    assert orders == {"eigh": [], "eigvalsh": [dec.n, t], "svd": []}


@pytest.mark.parametrize("case", LOW_RANK_CASES)
def test_averaging_lhs_from_grams_matches_dense_T(case):
    # ||T||_F^2 from the k x k matrices M, J and the resolvent K against the dense
    # T = L^T (A - b'I)^{-1} L, on the states of a recorded walk.
    dec = LOW_RANK_CASES[case]()
    result = run_selection(dec, 0.5)
    ks = (0, 1, 5) if case == "ramp-64x128" else range(len(result.sigma))
    assert max(ks) < len(result.sigma)
    for k in ks:
        b = result.traces[k].barrier_before
        state = SelectionState.of(dec, result.sigma[:k], b)
        b_prime = b - result.schedule.delta
        A = _gram(dec, state.sigma)
        T = dec.L.T @ shifted_inverse(A, b_prime) @ dec.L
        lhs = rinv.selector._t_frob_sq(state, b_prime)
        assert lhs == pytest.approx(float(np.sum(T * T)), rel=1e-10)
        expected = _reference_preconditions(A, b, result.schedule, dec.L)
        assert asdict(check_step_preconditions(state, result.schedule)) == expected


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


def _raised_barrier(dec, sigma, eps):
    """sigma taken and the barrier lifted so far above A that every
    candidate fails the rank test, even with the retry slack."""
    W = dec.mapped_vectors()
    sched = compute_schedule(dec.L, dec.m, eps)
    b_prime = (np.linalg.eigvalsh(_gram(dec, sigma))[-1]
               + 2.0 * float(np.max(np.sum(W * W, axis=1))))
    return sched, SelectionState.of(dec, sigma, b_prime + sched.delta)


def _raised_barrier_state():
    n = 6
    rng = np.random.default_rng(21)
    L = rng.standard_normal((n, n))
    dec = Decomposition(L=L / np.linalg.norm(L, 2), V=random_tight_frame(n, 2 * n, 21))
    return (dec, *_raised_barrier(dec, [0, 1], 0.8))


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
    _check_infeasible_state(pivot, *make_state())


def _check_infeasible_state(pivot, dec, sched, state):
    """No candidate passes, with or without the retry slack: select_next
    raises with the reference scan's margins."""
    A = _gram(dec, state.sigma)
    diag = check_step_preconditions(state, sched)
    expected = _reference_preconditions(A, state.barrier_b, sched, dec.L)
    assert asdict(diag) == expected
    with pytest.raises(InfeasibilityError, match=f"at step {len(state.sigma)} ") as err:
        select_next(state, sched, pivot)
    b_prime = state.barrier_b - sched.delta
    M = shifted_inverse(A, b_prime)
    phi_b, phi_bp = potential(A, state.barrier_b, dec.L), potential(A, b_prime, dec.L)
    W = dec.mapped_vectors()
    for slack in (0.0, TOL.feasibility_retry):
        chosen, _, scanned, margins = _reference_scan(A, M, dec.L, W, state.sigma,
                                                      phi_b, phi_bp, pivot, slack)
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
    chosen, rec, got_scanned = select_next(state, sched, pivot)
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
