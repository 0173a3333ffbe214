"""The low-rank selector against walk_reference.reference_walk, the walk
from the scalar primitives as the paper writes it: a dense A, an eigh of it
per potential and one candidate_feasible call per candidate. The selector
must choose the same sigma and record the same traces, within
tol.sm_consistency. array_select_next keeps the scan over arrays of all the
candidates left, which select_next's in-place blocks must match bit for bit.
"""

import json
import tracemalloc

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
    READ_AHEAD,
    FeasibilityRecord,
    Grams,
    SelectionState,
    Spectrum,
    candidate_feasible,
    check_step_preconditions,
    potential,
    select_next,
    shifted_inverse,
)
from rinv.errors import InfeasibilityError, InvariantViolation
from test_acceptance import EPS_GRID, build_grid
from walk_reference import (
    dense_gram,
    grams_of,
    reference_preconditions,
    reference_scan,
    reference_walk,
    shift_values,
    state_of,
)

PIVOTS = ("first", "greedy")
TOL = default_tolerances()


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
    # candidate, zero rows included: the scan raises with the reference
    # margins.
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
        state = state_of(dec, result.sigma[:k], tr.barrier_before)
        values = shift_values(state, result.schedule)
        assert check_step_preconditions(state, result.schedule, *values) == tr.preconditions
        chosen, _, _ = select_next(state, result.schedule, *values, pivot)
        assert chosen == tr.chosen_index


def _array_pick(quad, after, phi_before, first):
    """array_select_next's pick: the chosen candidate's place among those
    left (None if none passes), candidates scanned."""
    ok = (quad < -1.0) & (after <= phi_before)
    hits = ok.nonzero()[0]
    if hits.size == 0:
        return None, len(quad)
    if first:
        return int(hits[0]), int(hits[0]) + 1
    return int(hits[np.argmin(after[hits])]), len(quad)


def array_select_next(state, schedule, at_b, at_bp, K, pivot_rule):
    """select_next written over arrays of all the candidates left: a mask of
    them, their indices in order and NaN-filled quad and after, into which
    each block's columns are gathered through the mask before one pick over
    all of them. The blocks are select_next's index ranges from the first
    index left. The reference for select_next's in-place blocks, which must
    match it bit for bit."""
    first = pivot_rule == "first"
    grams, k, m = state.grams, len(state.grams.cols), len(state.grams.V)
    phi_before, d0, H_ss = at_b.phi, at_bp.d0, grams.Hss[:k, :k]
    left = np.ones(m, dtype=bool)
    left[grams.cols] = False
    order = left.nonzero()[0]
    quad, after = np.full(len(order), np.nan), np.full(len(order), np.nan)
    pos, scanned = None, len(order)
    start, size = (int(order[0]) if len(order) else m), 1 if first else m
    with np.errstate(divide="ignore", invalid="ignore"):
        while start < m:
            rows = slice(start, min(start + size, m))
            lo, hi = np.searchsorted(order, [rows.start, rows.stop])  # places among those left
            grams.read(rows.stop)
            G, H, w_sq, keep = grams.G[:k, rows], grams.H[:k, rows], grams.g[rows], left[rows]
            Z = K @ G
            y_sq = (rinv.selector._col_dots(H_ss @ Z, Z) + 2.0 * d0 * rinv.selector._col_dots(Z, H)
                    + d0 * d0 * grams.h[rows])
            q = np.where(w_sq > 0, rinv.selector._col_dots(Z, G) + d0 * w_sq, np.nan)[keep]
            quad[lo:hi], after[lo:hi] = q, at_bp.phi - y_sq[keep] / (1.0 + q)
            hit = _array_pick(q, after[lo:hi], phi_before, first)[0] if first else None
            if hit is not None:
                pos, scanned = lo + hit, lo + hit + 1
                break
            start, size = rows.stop, 2 * size
    if not first:
        pos, scanned = _array_pick(quad, after, phi_before, first)
    if pos is None:
        qm, pm = -1.0 - quad, phi_before - after
        score = np.nan_to_num(np.minimum(qm, pm), nan=-np.inf, neginf=-np.inf)
        j = int(np.argmax(score)) if score.max(initial=-np.inf) > -np.inf else None
        margins = (-np.inf, -np.inf) if j is None else (float(qm[j]), float(pm[j]))
        raise InfeasibilityError(
            f"no feasible candidate at step {k + 1} (best quadform margin "
            f"{margins[0]:.3e}, best potential margin {margins[1]:.3e})",
            best_quadform_margin=margins[0], best_potential_margin=margins[1],
        )
    rec = FeasibilityRecord(float(quad[pos]), float(after[pos]), True)
    return int(order[pos]), rec, scanned


def _padded_scan_state(k, positions=(2, 5, 8), front_zeros=12):
    """The padded frame instance with the first k indices of its walk taken,
    permuted into an order that starts with front_zeros zero rows and puts
    the taken ones at the given positions. With the defaults, first-feasible's
    index blocks 1-2, 3-6 and 7-14 each hold one taken row: 2, 5 and 8."""
    dec, failing = _padded_frame_instance(32)
    sigma = run_selection(dec, 0.5).sigma[:k]
    rest = np.setdiff1d(np.arange(dec.m), np.concatenate([failing, sigma]))
    front = failing[::-1][:front_zeros].tolist()  # zero rows, the last ones of V
    for position, i in zip(positions, sigma):
        front.insert(position, i)
    order = np.array(front + np.setdiff1d(failing, front).tolist()
                     + np.random.default_rng(4).permutation(rest).tolist())
    sched = compute_schedule(dec.L, dec.m, 0.5)
    dec, sigma = permuted(dec, order), np.argsort(order)[sigma].tolist()
    return dec, sched, state_of(dec, sigma, sched.b0 - k * sched.delta)


HARD_STATES = {
    "zero-rows-first": lambda: _padded_scan_state(0),
    "taken-in-blocks": lambda: _padded_scan_state(3),
}
# All 160 failing vectors come first, 45 zero rows in front. The taken
# index 3 is the first of first-feasible's index block 3-6, 30 the last of
# 15-30 and 40 inside 31-62. The first hit, index 163 (left position 160),
# is in the block 127-254, which ends one index short of m = 256.
SCAN_STATES = {
    **HARD_STATES,
    "taken-in-later-blocks": lambda: _padded_scan_state(3, (3, 30, 40), 45),
}
TAKEN = {"zero-rows-first": [], "taken-in-blocks": [2, 5, 8], "taken-in-later-blocks": [3, 30, 40]}


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("make_state", SCAN_STATES)
def test_resolvent_scan_matches_reference_on_hard_states(pivot, make_state, monkeypatch):
    # select_next's arrays against one candidate_feasible call per candidate
    # in index order.
    dec, sched, state = SCAN_STATES[make_state]()
    grams, sigma, first = state.grams, state.grams.cols, pivot == "first"
    assert sigma == TAKEN[make_state]
    blocks, pick, masked_pick = [], _array_pick, rinv.selector._pick

    def spy(quad, after, phi_before, first, free):
        # free is False on a block's taken columns
        blocks.append((quad[free], after[free], phi_before, len(quad)))
        return masked_pick(quad, after, phi_before, first, free)

    monkeypatch.setattr(rinv.selector, "_pick", spy)
    chosen = select_next(state, sched, *shift_values(state, sched), pivot)[0]
    left = np.setdiff1d(np.arange(dec.m), grams.cols)
    # The free columns of every block tested, in scan order, laid end to end:
    # greedy's one block, or first-feasible's blocks up to its hit. NaN marks
    # the candidates no block reached.
    phi_before, scan_read = blocks[0][2], sum(len(p[0]) for p in blocks)
    quad, after = np.full(len(left), np.nan), np.full(len(left), np.nan)
    quad[:scan_read] = np.concatenate([p[0] for p in blocks])
    after[:scan_read] = np.concatenate([p[1] for p in blocks])

    A, b_prime = dense_gram(dec, sigma), state.barrier_b - sched.delta
    M, W = shifted_inverse(A, b_prime), dec.V @ dec.L.T
    phi_b, phi_bp = potential(A, state.barrier_b, dec.L), potential(A, b_prime, dec.L)
    pos, scanned = pick(quad, after, phi_before, first)
    want, rec, want_scanned, _ = reference_scan(A, M, dec.L, W, sigma, phi_b, phi_bp, pivot)
    assert want is not None and (int(left[pos]), scanned) == (want, want_scanned)
    assert chosen == want
    np.testing.assert_allclose([quad[pos], after[pos]],
                               [rec.quadform, rec.potential_after_add], rtol=1e-10)

    # Each block is a range of indices, taken ones included, from the first
    # index left, f: [f, f + 1), [f + 1, f + 3), ... up to the block of the
    # hit for first-feasible (as in test_grams_filled_on_read_match_dense),
    # [f, m) for greedy. Every free candidate of the blocks read is tested:
    # zero vectors are NaN, the rest match the reference.
    f, widths = int(left[0]), [p[3] for p in blocks]
    if first:
        assert widths == [min(2 ** j, dec.m + 1 - f - 2 ** j) for j in range(len(blocks))]
        stop = min(f + 2 ** (want + 1 - f).bit_length() - 1, dec.m)
    else:
        assert widths == [dec.m - f]
        stop = dec.m
    read = int(np.searchsorted(left, stop))
    assert f + sum(widths) == stop and scan_read == read
    tested, zero = np.flatnonzero(np.isfinite(after)), ~W[left].any(axis=1)
    assert np.isnan(quad[zero]).all() and np.isnan(after[zero]).all()
    assert tested.tolist() == np.flatnonzero(~zero[:read]).tolist()
    ref = np.array([[r.quadform, r.potential_after_add] for r in
                    (candidate_feasible(A, M, dec.L, W[i], phi_b, phi_bp) for i in left[tested])])
    np.testing.assert_allclose(np.column_stack([quad[tested], after[tested]]), ref,
                               rtol=1e-10, atol=1e-12 * np.abs(ref).max())


def _scan_outcome(scan, state, sched, pivot):
    """What scan(state, ...) returns, floats as hex so that == is bit for
    bit, or the InfeasibilityError it raises, and the Grams' reach after it."""
    try:
        chosen, rec, scanned = scan(state, sched, *shift_values(state, sched), pivot)
        rec = (rec.quadform.hex(), rec.potential_after_add.hex(), rec.feasible, rec.reason)
        outcome = (chosen, rec, scanned)
    except InfeasibilityError as err:
        outcome = (str(err), err.best_quadform_margin.hex(), err.best_potential_margin.hex())
    return outcome, state.grams.reach


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("make_state", SCAN_STATES)
@pytest.mark.parametrize("barrier", ["walk", "raised"])
def test_in_place_scan_matches_array_scan_bits(pivot, make_state, barrier):
    # select_next and array_select_next, each on its own fresh state, must
    # choose the same index with the same record bits and candidates
    # scanned, read the same rows, and raise with the same margins. At the
    # walk's barrier a block has a hit. Raised, every candidate fails.
    outcomes = []
    for scan in (select_next, array_select_next):
        dec, sched, state = SCAN_STATES[make_state]()
        if barrier != "walk":
            sched, state = _raised_barrier(dec, state.grams.cols, 0.5)
        outcomes.append(_scan_outcome(scan, state, sched, pivot))
    assert outcomes[0] == outcomes[1]
    (outcome, reach), n_left = outcomes[0], dec.m - len(state.grams.cols)
    if barrier == "raised":
        assert outcome[0].startswith("no feasible candidate")
        return
    chosen, rec, scanned = outcome
    assert rec[2:] == (True, "") and chosen not in state.grams.cols
    if pivot == "greedy":
        assert scanned == n_left and reach == dec.m
    elif make_state == "taken-in-later-blocks":
        # The hit at index 163, left position 160, is read in the block
        # 127-254, so the read stops one index short of m.
        assert (chosen, scanned, reach) == (163, 161, dec.m - 1)


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("make_state", ["taken-in-blocks", "taken-in-later-blocks"])
def test_scan_skips_taken_indices_that_pass(pivot, make_state):
    # With b' a little above the spectrum of A and delta = 1, the chosen
    # vectors pass both tests again, and they lie inside first-feasible's
    # blocks and greedy's one block: only the taken mask keeps them out.
    outcomes = []
    for scan in (select_next, array_select_next):
        dec, sched, state = SCAN_STATES[make_state]()
        A = dense_gram(dec, state.grams.cols)
        b_prime = 1.1 * np.linalg.eigvalsh(A)[-1]
        sched, state = sched._replace(delta=1.0), state_of(dec, state.grams.cols, b_prime + 1.0)
        outcomes.append(_scan_outcome(scan, state, sched, pivot))
    assert outcomes[0] == outcomes[1]
    (chosen, rec, _), _ = outcomes[0]
    sigma = state.grams.cols
    assert chosen not in sigma and rec[2] is True
    M, W = shifted_inverse(A, b_prime), dec.V @ dec.L.T
    phi_b, phi_bp = potential(A, b_prime + 1.0, dec.L), potential(A, b_prime, dec.L)
    assert all(candidate_feasible(A, M, dec.L, W[c], phi_b, phi_bp).feasible for c in sigma)


@pytest.mark.parametrize("pivot", PIVOTS)
def test_scan_with_no_candidate_left_matches_array_scan(pivot):
    # Every index taken: both scans raise with -inf margins.
    dec = Decomposition(L=np.eye(2), V=np.eye(2))
    sched = compute_schedule(dec.L, dec.m, 0.5)
    outcomes = [_scan_outcome(scan, state_of(dec, [1, 0], 0.75), sched, pivot)
                for scan in (select_next, array_select_next)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][1:] == ((-np.inf).hex(),) * 2


@pytest.mark.parametrize("pivot", PIVOTS)
def test_grams_taken_is_the_chosen_set(pivot, monkeypatch):
    # After every append, taken marks exactly the chosen indices: in the
    # Grams of a sigma given in any order, and along a walk.
    seen, append = [], Grams.append

    def spy(self, index):
        append(self, index)
        seen.append(np.flatnonzero(self.taken).tolist() == sorted(self.cols))

    monkeypatch.setattr(Grams, "append", spy)
    dec = _ramp_instance(64, 128, 3)
    grams = grams_of(dec, [70, 3, 127, 0, 64])
    assert grams.cols == [70, 3, 127, 0, 64] and seen == [True] * 5
    seen.clear()
    result = run_selection(permuted(dec, np.random.default_rng(5).permutation(dec.m)), 0.5,
                           pivot_rule=pivot)
    assert len(seen) == len(result.sigma) > 1 and all(seen)


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


# id prefix: (n, m, blocks). One block of V; and three 512-row blocks (n = 256),
# the last one partial.
GRAM_CASES = {"": (64, 256, (1, 0)), "three-blocks-": (256, 1300, (2, 276))}


@pytest.mark.parametrize("pivot, n, m, blocks",
                         [(pivot, *case) for case in GRAM_CASES.values() for pivot in PIVOTS],
                         ids=[label + pivot for label in GRAM_CASES for pivot in PIVOTS])
def test_grams_filled_on_read_match_dense(pivot, n, m, blocks, monkeypatch):
    # The Grams hold columns in index order, filled on first read up to
    # reach, and rows in the order sigma was chosen. The walk runs on dec
    # permuted by order, so its index p is dec's order[p]. Every filled entry
    # must equal dec's dense V LtL V^T, VG VG^T and row norms, and the chosen
    # rows and k x k blocks their entries at sigma. append forms its rows of
    # G and H in row blocks of V; blocks is (full blocks, rows in the last)
    # over all m rows, which greedy reaches. A block rounds as a GEMM, so
    # the walk is held to the reference within tolerance, not bit for bit.
    dec = _ramp_instance(n, m, 7)
    order = np.random.default_rng(8).permutation(dec.m)
    _check_against_reference(permuted(dec, order), 0.5, pivot)
    result, steps = _recorded_walk(permuted(dec, order), 0.5, pivot, monkeypatch)
    grams = steps[-1][0].grams
    assert divmod(dec.m, len(grams.out)) == blocks
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
    # First-feasible reads the index blocks [f, f + 1), [f + 1, f + 3), ...
    # from the first index left, f, and stops after the block of its hit, the
    # scanned-th index left: it reads up to f + 2^b - 1, capped at m, with b
    # the bit length of hit - f + 1. A read of at most READ_AHEAD positions
    # fills READ_AHEAD from the reach before it, so reach passes the last
    # position read by less than READ_AHEAD, capped at m, or stays where it was.
    reach = 0
    for _, left, scanned, after in steps:
        f, hit = int(left[0]), int(left[scanned - 1])
        last = min(f + 2 ** (hit - f + 1).bit_length() - 1, dec.m) - 1
        assert last < after <= max(reach, min(dec.m, last + READ_AHEAD))
        reach = after
    assert grams.reach < k + READ_AHEAD < dec.m // 8  # about t, where greedy reads all m


def test_first_feasible_takes_both_lv_paths(monkeypatch):
    # Three frame vectors, then 60 failing ones. Steps 0-2 take indices 0, 1
    # and 2, whose first block read 0-15 ahead, with LV rows. From step 3 the
    # blocks start at index 3, a failing one that stays free: the blocks
    # 10-17 and 18-33 read 16-31 and 32-47 ahead, with LV rows, and the
    # 32-index block 34-65, longer than READ_AHEAD, reads 48-65 without them.
    # Its hit at 63, the next steps' 64 and 65, and 66 and 67 of the block
    # 66-129, take lv = LtL vg.
    dec, failing = _padded_frame_instance(24)
    frame = np.random.default_rng(25).permutation(3 * 24)
    order = np.concatenate([frame[:3], failing[:60], frame[3:], failing[60:]])
    dec = permuted(dec, order)
    calls, append = [], Grams.append

    def spy(self, index):
        calls.append((self, bool(self.has_lv[index])))  # whether lv is an LV row
        return append(self, index)

    monkeypatch.setattr(Grams, "append", spy)
    result = _check_against_reference(dec, 0.8, "first")
    assert result.sigma[:4] == [0, 1, 2, 63]
    assert [had for _, had in calls] == [True] * 3 + [False] * (len(result.sigma) - 3)
    grams = calls[-1][0]
    LtL = dec.L.T @ dec.L
    rows = np.flatnonzero(grams.has_lv)
    assert rows.tolist() == list(range(48)) and grams.reach == 130
    want = (dec.V @ LtL @ LtL)[rows]
    np.testing.assert_allclose(grams.LV[rows], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("pivot", PIVOTS)
def test_reads_that_advance_reach(pivot, monkeypatch):
    # First-feasible on a ramp takes one candidate per step, so a read per
    # step would advance reach t times; read ahead, it advances once per
    # READ_AHEAD rows. Greedy reads all m rows at step 0, once.
    advances, read = [], Grams.read

    def spy(self, end):
        before = self.reach
        read(self, end)
        if self.reach > before:
            advances.append(self.reach)

    monkeypatch.setattr(Grams, "read", spy)
    dec = _ramp_instance(256, 512, 11)
    result = run_selection(dec, 0.5, pivot_rule=pivot)
    t = len(result.sigma)
    assert t > 2 * READ_AHEAD
    if pivot == "greedy":
        assert advances == [dec.m]
        return
    assert len(advances) <= -(-advances[-1] // READ_AHEAD) < t


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
    # The walk scans dec permuted by order; state_of reads sigma's
    # rows of dec, mapped back through order, in their own order. Both must
    # see the same spectrum and J.
    dec = _ramp_instance(64, 256, 7)
    order = np.random.default_rng(9).permutation(dec.m)
    result, steps = _recorded_walk(permuted(dec, order), 0.5, pivot, monkeypatch)
    assert sorted(order[result.sigma]) != order[result.sigma].tolist()
    for k, (state, *_) in enumerate(steps):
        fresh = state_of(dec, order[result.sigma[:k]], state.barrier_b)
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
    # The post-step checks still see every step: step s compares the s - 1
    # explicit eigenvalues before it and a 0 with the s after it.
    assert interlaced == [(s, s) for s in range(1, t + 1)]

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
        state = state_of(dec, result.sigma[:k], b)
        b_prime = b - result.schedule.delta
        A = dense_gram(dec, state.grams.cols)
        T = dec.L.T @ shifted_inverse(A, b_prime) @ dec.L
        values = shift_values(state, result.schedule)
        lhs = rinv.selector._t_frob_sq(state, *values[1:])
        assert lhs == pytest.approx(float(np.sum(T * T)), rel=1e-10)
        expected = reference_preconditions(A, b, result.schedule, dec.L)
        assert check_step_preconditions(state, result.schedule, *values)._asdict() == expected


@pytest.mark.parametrize("pivot", PIVOTS)
def test_walk_evaluates_each_potential_once(pivot, monkeypatch):
    # Phi at b0, then per step Phi at b' before the step and after it; the
    # latter is the next step's Phi at b.
    calls = []
    shifted_spectrum = rinv.selector.shifted_spectrum

    def counting(lam, shift, tol):
        calls.append(shift)
        return shifted_spectrum(lam, shift, tol)

    monkeypatch.setattr(rinv.selector, "shifted_spectrum", counting)
    result = run_selection(_ramp_instance(64, 128, 3), 0.5, pivot_rule=pivot)
    t = result.schedule.steps_t
    assert t == 9
    assert len(calls) == 2 * t + 1


def _raised_barrier(dec, sigma, eps):
    """sigma taken and the barrier lifted so far above A that every
    candidate fails the rank test."""
    W = dec.V @ dec.L.T
    sched = compute_schedule(dec.L, dec.m, eps)
    b_prime = (np.linalg.eigvalsh(dense_gram(dec, sigma))[-1]
               + 2.0 * float(np.max(np.sum(W * W, axis=1))))
    return sched, state_of(dec, sigma, b_prime + sched.delta)


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
    return dec, sched, state_of(dec, [], 1.0 + sched.delta)


def _potential_failure_state():
    """A = 0, L = V = I_4 and b' = 0.5, below the schedule's: every candidate
    passes the rank test and fails the potential test, and the averaging
    inequality fails (16 > 32/3) where it would hold at b (64/9)."""
    dec = Decomposition(L=np.eye(4), V=np.eye(4))
    sched = compute_schedule(dec.L, dec.m, 0.5)
    return dec, sched, state_of(dec, [], 0.5 + sched.delta)


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize(
    "make_state", [_raised_barrier_state, _split_failure_state, _potential_failure_state]
)
def test_infeasible_step_reports_reference_margins(pivot, make_state):
    _check_infeasible_state(pivot, *make_state())


def _check_infeasible_state(pivot, dec, sched, state):
    """No candidate passes: select_next raises with the reference scan's
    margins."""
    sigma = state.grams.cols
    A = dense_gram(dec, sigma)
    values = shift_values(state, sched)
    diag = check_step_preconditions(state, sched, *values)
    expected = reference_preconditions(A, state.barrier_b, sched, dec.L)
    assert diag._asdict() == expected
    with pytest.raises(InfeasibilityError, match=f"at step {len(sigma) + 1} ") as err:
        select_next(state, sched, *values, pivot)
    b_prime = state.barrier_b - sched.delta
    M = shifted_inverse(A, b_prime)
    phi_b, phi_bp = potential(A, state.barrier_b, dec.L), potential(A, b_prime, dec.L)
    chosen, _, scanned, margins = reference_scan(A, M, dec.L, dec.V @ dec.L.T, sigma,
                                                  phi_b, phi_bp, pivot)
    assert chosen is None and scanned == dec.m - len(sigma)
    assert err.value.best_quadform_margin == pytest.approx(margins[0], rel=1e-9)
    assert err.value.best_potential_margin == pytest.approx(margins[1], rel=1e-9)
    assert min(margins) < 0 < max(margins)


def _near_miss_state(potential_miss):
    """A = 0 and L = V = I_3, with b' where every candidate misses one test
    by about 1e-10 relative: the rank test (quadform = -1/b', b' = 1 / (1 -
    1e-10)), or with potential_miss the potential test (b' = 0.5 and b = 1.5 /
    (1 + 1e-10): after = -2 against phi_b = -2 (1 + 1e-10))."""
    dec = Decomposition(L=np.eye(3), V=np.eye(3))
    sched = compute_schedule(dec.L, dec.m, 0.5)
    if potential_miss:
        b = 1.5 / (1.0 + 1e-10)
        sched = sched._replace(delta=b - 0.5)
    else:
        b = 1.0 / (1.0 - 1e-10) + sched.delta
    grams = Grams.of(dec, capacity=1)  # room to append a candidate anyway
    return dec, sched, SelectionState(b, Spectrum.of(grams, TOL), grams)


@pytest.mark.parametrize("pivot", PIVOTS)
@pytest.mark.parametrize("potential_miss", [False, True], ids=["rank", "potential"])
def test_near_miss_is_infeasible(pivot, potential_miss):
    # Every candidate misses one test by about 1e-10 relative, which no
    # slack forgives: the step raises with that margin. Neither state meets
    # the step's preconditions, and taking the rank state's index 0 anyway
    # breaks the barrier invariant: A + w w^T has no eigenvalue above b'.
    dec, sched, state = _near_miss_state(potential_miss)
    values = shift_values(state, sched)
    assert not check_step_preconditions(state, sched, *values).potential_ok
    step = len(state.grams.cols) + 1
    with pytest.raises(InfeasibilityError, match=f"at step {step} ") as err:
        select_next(state, sched, *values, pivot)
    qm, pm = err.value.best_quadform_margin, err.value.best_potential_margin
    if potential_miss:
        assert qm > 0 and pm == pytest.approx(-2e-10, rel=1e-3)
        return
    assert -1e-9 < qm < 0
    A, b_prime = np.zeros((3, 3)), state.barrier_b - sched.delta
    phi_b = state.spectrum.at(state.barrier_b).phi
    rec = candidate_feasible(A, shifted_inverse(A, b_prime), dec.L, np.eye(3)[0], phi_b,
                             potential(A, b_prime, dec.L))
    assert (rec.feasible, rec.reason) == (False, "rank-test")
    assert -1.0 - rec.quadform == pytest.approx(qm, rel=1e-5)
    state.grams.append(0)
    # The scan and the post-step check name the same step.
    with pytest.raises(InvariantViolation, match=f"at step {step}: 0 eigenvalues above"):
        rinv.selector._check_post_step(state.spectrum, Spectrum.of(state.grams, TOL), step,
                                       b_prime, rec)
