"""Barrier selection loop: schedule, potential, feasibility, invariants."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rinv.selector
from rinv import (
    Decomposition,
    compare_to_guarantee,
    compute_schedule,
    from_standard_basis,
    permuted,
    random_tight_frame,
    run_selection,
    verify,
)
from rinv.errors import (
    DimensionError,
    IndexRangeError,
    InfeasibilityError,
    InvariantViolation,
    NormRangeError,
    ParameterError,
    ZeroOperatorError,
)
from rinv.certificate import gram_min_eigenvalue
from rinv.selector import (
    FROB_SQ_RANGE,
    FeasibilityRecord,
    Schedule,
    _check_post_step,
    candidate_feasible,
    check_step_preconditions,
    potential,
    potential_split,
    select_next,
    shifted_inverse,
)
from walk_reference import shift_values, state_of


def frame_120():
    angles = np.deg2rad([0.0, 120.0, 240.0])
    return np.sqrt(2.0 / 3.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)


class TestComputeSchedule:
    def test_identity_half(self):
        s = compute_schedule(np.eye(4), 4, 0.5)
        assert s.b0 == pytest.approx(0.5)
        assert s.delta == pytest.approx(0.25)
        assert s.steps_t == 1

    def test_vacuous_floor(self):
        s = compute_schedule(np.eye(4), 4, 0.4)
        assert s.steps_t == 0
        assert s.vacuous

    def test_rank_deficient_diag(self):
        # stable rank 2; values evaluated independently:
        # t = floor(0.64 * 2) = 1, b0 = 0.2 * 2 / 3, delta = 0.2 / (0.8 * 3)
        s = compute_schedule(np.diag([1.0, 1.0, 0.0]), 3, 0.8)
        assert s.steps_t == 1
        assert s.b0 == pytest.approx(0.2 * 2 / 3)
        assert s.delta == pytest.approx(0.2 / (0.8 * 3))

    def test_bad_epsilon(self):
        # The last three are reals that overflow a float, or lie inside (0, 1)
        # but round to 0.0 or 1.0 as one.
        tiny = Fraction(1, 10**400)
        for eps in (0.0, 1.0, -0.5, 1.5, math.nan, 10**400, tiny, 1 - tiny):
            with pytest.raises(ParameterError, match=r"epsilon must be in \(0, 1\)"):
                compute_schedule(np.eye(2), 2, eps)

    @pytest.mark.parametrize("entry", ["compute_schedule", "run_selection", "verify",
                                       "compare_to_guarantee"])
    @pytest.mark.parametrize("eps", ["0.5", None, [0.5], np.array([0.5]), 0.5 + 0j],
                             ids=["str", "none", "list", "array", "complex"])
    def test_epsilon_not_a_real_number(self, entry, eps):
        dec = Decomposition(L=np.eye(4), V=random_tight_frame(4, 8, 0))
        calls = {
            "compute_schedule": lambda: compute_schedule(dec.L, dec.m, eps),
            "run_selection": lambda: run_selection(dec, eps),
            "verify": lambda: verify(dec, eps, [0]),
            "compare_to_guarantee": lambda: compare_to_guarantee(dec, eps),
        }
        with pytest.raises(ParameterError, match="epsilon must be a real number"):
            calls[entry]()

    @pytest.mark.parametrize("eps", [np.float64(0.5), np.float32(0.5), Fraction(1, 2)],
                             ids=["float64", "float32", "fraction"])
    def test_real_epsilon_is_read_as_a_float(self, eps):
        # Any real epsilon passes the gate; the walk and the certificate,
        # down to its JSON bytes, are those of the float it equals.
        dec = Decomposition(L=np.eye(4), V=random_tight_frame(4, 8, 0))
        sigma = run_selection(dec, eps).sigma
        assert sigma == run_selection(dec, 0.5).sigma
        assert (json.dumps(verify(dec, eps, sigma).to_json_dict())
                == json.dumps(verify(dec, 0.5, sigma).to_json_dict()))

    def test_zero_operator(self):
        with pytest.raises(ZeroOperatorError):
            compute_schedule(np.zeros((2, 2)), 2, 0.5)

    def test_final_barrier_below_the_bound_fails_before_the_walk(self, monkeypatch):
        # The final barrier b0 - t delta is checked where the schedule is
        # made, so a walk on an inconsistent schedule takes no step.
        monkeypatch.setattr(Schedule, "guarantee_bound", property(lambda s: s.b0))

        def no_step(*args, **kwargs):
            raise AssertionError("the walk took a step")

        monkeypatch.setattr(rinv.selector, "select_next", no_step)
        dec = Decomposition(L=np.eye(4), V=random_tight_frame(4, 8, 0))
        message = "final barrier .* fell below the promised bound"
        with pytest.raises(InvariantViolation, match=message):
            compute_schedule(np.eye(4), 4, 0.5)
        with pytest.raises(InvariantViolation, match=message) as err:
            run_selection(dec, 0.5)
        assert err.value.traces is None  # raised before the first step

    @pytest.mark.parametrize("m", [2.5, 0, -3, True, "4", None],
                             ids=["float", "zero", "negative", "bool", "str", "none"])
    def test_bad_m(self, m):
        with pytest.raises(ParameterError, match="m must be a positive integer"):
            compute_schedule(np.eye(4), m, 0.5)

    def test_m_beyond_float_range(self):
        with pytest.raises(ParameterError, match="m must be at most the largest float"):
            compute_schedule(np.eye(4), 10**400, 0.5)

    def test_numpy_integer_m(self):
        assert compute_schedule(np.eye(4), np.int64(4), 0.5) == compute_schedule(np.eye(4), 4, 0.5)

    def test_verify_without_vectors(self):
        # m = 0 is named, where it divided by zero.
        dec = Decomposition(L=np.eye(4), V=np.empty((0, 4)))
        with pytest.raises(ParameterError, match="m must be a positive integer, got 0"):
            verify(dec, 0.5, [])

    @pytest.mark.parametrize("L", [np.ones((3, 4)), np.ones(4), np.ones((2, 2, 2))],
                             ids=["3x4", "1-D", "3-D"])
    def test_non_square_L(self, L):
        with pytest.raises(DimensionError, match="L must be square"):
            compute_schedule(L, 4, 0.5)

    def test_step_budget_below_b0(self):
        for eps in (0.3, 0.5, 0.9):
            s = compute_schedule(np.eye(10), 20, eps)
            if s.steps_t >= 1:
                assert s.steps_t * s.delta < s.b0

    @pytest.mark.parametrize("scale", [1e200, 1e60, 1e-60, 1e-170],
                             ids=["overflow", "cube-overflow", "cube-underflow", "underflow"])
    def test_norm_outside_float_range(self, scale):
        # Typed, and without a RuntimeWarning from forming ||L||_F^2.
        dec = Decomposition(L=scale * np.eye(4), V=np.eye(4))
        with pytest.raises(NormRangeError, match=r"\|\|L\|\|_F\^2 = .* outside the float range"):
            compute_schedule(dec.L, 4, 0.5)
        with pytest.raises(NormRangeError):
            run_selection(dec, 0.5)
        with pytest.raises(NormRangeError):
            verify(dec, 0.5, [0])

    def test_nan_operator(self):
        with pytest.raises(NormRangeError, match=r"= nan is outside"):
            compute_schedule(np.full((3, 3), np.nan), 3, 0.5)

    @pytest.mark.parametrize("edge", [1.01 * FROB_SQ_RANGE[0], 0.99 * FROB_SQ_RANGE[1]],
                             ids=["low", "high"])
    @pytest.mark.parametrize("pivot", ["first", "greedy"])
    def test_walk_at_the_edges_of_the_range(self, edge, pivot):
        # Just inside the range every Gram of the walk, up to the third power
        # of L^T L, is a normal float: same sigma and flags as at scale 1.
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        L = Q * np.linspace(1.0, 2.0, 32)
        dec = Decomposition(L=L, V=random_tight_frame(32, 64, 2))
        base = run_selection(dec, 0.5, pivot_rule=pivot)
        scaled = Decomposition(L=L * math.sqrt(edge / np.sum(L * L)), V=dec.V)
        res = run_selection(scaled, 0.5, pivot_rule=pivot)
        assert len(res.sigma) == res.schedule.steps_t > 1
        assert res.sigma == base.sigma
        assert [tr.preconditions for tr in res.traces] == [tr.preconditions for tr in base.traces]
        assert verify(scaled, 0.5, res.sigma).passes

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["square", "rank-deficient", "dominant"]),
           n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(-12.0, 8.0), epsilon=st.sampled_from([0.5, 0.7, 0.9]))
    def test_spec_sq_and_selection_under_scaling(self, kind, n, seed, exponent, epsilon):
        # ||L||_2^2 from eigvalsh(L^T L) against the SVD of L, and t and sigma
        # unchanged under L -> cL for c in [1e-12, 1e8].
        rng = np.random.default_rng(seed)
        L = rng.standard_normal((n, n))
        if kind == "rank-deficient":
            L = L[:, : n // 2] @ rng.standard_normal((n // 2, n))
        elif kind == "dominant":
            L = L + 30.0 * np.outer(rng.standard_normal(n), rng.standard_normal(n))
        c = 10.0 ** exponent
        sched = compute_schedule(c * L, 2 * n, epsilon)
        svd_sq = np.linalg.svd(c * L, compute_uv=False)[0] ** 2
        assert abs(sched.spec_sq - svd_sq) <= 1e-12 * svd_sq
        dec = Decomposition(L=L, V=random_tight_frame(n, 2 * n, seed))
        base = run_selection(dec, epsilon)
        scaled = run_selection(Decomposition(L=c * L, V=dec.V), epsilon)
        assert scaled.schedule.steps_t == base.schedule.steps_t == sched.steps_t
        assert scaled.sigma == base.sigma

    @pytest.mark.parametrize("pivot", ["first", "greedy"])
    def test_select_and_verify_agree_bit_for_bit(self, pivot):
        # Both take ||L||_2^2 from the same eigvalsh of the same L^T L.
        rng = np.random.default_rng(7)
        for n, m in ((6, 12), (24, 48), (40, 40)):
            L = rng.standard_normal((n, n))
            dec = Decomposition(L=L, V=random_tight_frame(n, m, n))
            for eps in (0.5, 0.8):
                res = run_selection(dec, eps, pivot_rule=pivot)
                cert = verify(dec, eps, res.sigma)
                assert cert.delta == res.schedule.delta
                assert cert.b0 == res.schedule.b0
                assert cert.subset_size_bound == res.schedule.steps_t
                assert cert.stable_rank == res.schedule.frob_sq / res.schedule.spec_sq


class TestPotential:
    def test_start_identity(self):
        assert potential(np.zeros((4, 4)), 0.5, np.eye(4)) == pytest.approx(-8.0)

    def test_start_closed_form(self):
        rng = np.random.default_rng(4)
        L = rng.standard_normal((5, 5))
        b0 = 0.37
        frob_sq = np.sum(L * L)
        assert potential(np.zeros((5, 5)), b0, L) == pytest.approx(-frob_sq / b0)

    def test_rank_one_direct_eigenvalue_sum(self):
        A = np.zeros((4, 4))
        A[0, 0] = 1.0
        # 1/(1 - 0.25) + 3 * 1/(0 - 0.25)
        expected = 1.0 / 0.75 - 3.0 / 0.25
        assert potential(A, 0.25, np.eye(4)) == pytest.approx(expected)


class TestCandidateFeasible:
    def test_first_step_identity(self):
        A = np.zeros((4, 4))
        L = np.eye(4)
        M = shifted_inverse(A, 0.25)
        phi_b = potential(A, 0.5, L)
        phi_bp = potential(A, 0.25, L)
        rec = candidate_feasible(A, M, L, np.eye(4)[0], phi_b, phi_bp)
        assert rec.quadform == pytest.approx(-4.0)
        assert rec.potential_after_add == pytest.approx(-32.0 / 3.0)
        assert rec.feasible

    def test_already_covered_direction(self):
        # w in the image of A, with A's eigenvalue above b': quadform positive
        A = np.zeros((2, 2))
        A[0, 0] = 1.0
        M = shifted_inverse(A, 0.25)
        w = np.array([1.0, 0.0])
        rec = candidate_feasible(A, M, np.eye(2), w, -1.0, -1.0)
        assert rec.quadform > 0
        assert not rec.feasible
        assert rec.reason == "rank-test"

    def test_zero_vector(self):
        A = np.zeros((2, 2))
        M = shifted_inverse(A, 0.25)
        rec = candidate_feasible(A, M, np.eye(2), np.zeros(2), -1.0, -1.0)
        assert not rec.feasible
        assert rec.reason == "zero-vector"

    def test_zero_denominator_fails_rank_test(self):
        # A = 0, b' = 1, w = e_1, L = I: 1 + quadform = 0. The update
        # divides to -inf, as in select_next's arrays, and quadform = -1
        # fails the rank test.
        A = np.zeros((1, 1))
        M = shifted_inverse(A, 1.0)
        rec = candidate_feasible(A, M, np.eye(1), np.ones(1), -1.0, -1.0)
        assert (rec.quadform, rec.potential_after_add) == (-1.0, -np.inf)
        assert (rec.feasible, rec.reason) == (False, "rank-test")


class TestSelectNext:
    def test_first_feasible_is_smallest_index(self):
        dec = from_standard_basis(np.eye(4))
        schedule = compute_schedule(dec.L, 4, 0.5)
        state = state_of(dec, [], schedule.b0)
        chosen, rec, scanned = select_next(state, schedule, *shift_values(state, schedule))
        assert chosen == 0
        assert rec.feasible
        assert scanned == 1

    def test_matches_exhaustive_scan(self):
        dec = Decomposition(L=np.eye(2), V=frame_120())
        schedule = compute_schedule(dec.L, 3, 0.75)
        state = state_of(dec, [], schedule.b0)
        chosen, rec, _ = select_next(state, schedule, *shift_values(state, schedule))
        # verify against an independent scan of all three candidates
        A = np.zeros((2, 2))
        M = shifted_inverse(A, schedule.b0 - schedule.delta)
        phi_b = potential(A, schedule.b0, dec.L)
        phi_bp = potential(A, schedule.b0 - schedule.delta, dec.L)
        feasible = [
            j
            for j, w in enumerate(dec.V @ dec.L.T)
            if candidate_feasible(A, M, dec.L, w, phi_b, phi_bp).feasible
        ]
        assert chosen == min(feasible)

    def test_state_rejects_non_integer_sigma(self):
        # [0.7, 2.9] must not be read as sigma = [0, 2].
        dec = from_standard_basis(np.eye(4))
        for sigma in ([0.7, 2.9], [True], ["1"], [1, 1]):
            with pytest.raises(IndexRangeError):
                state_of(dec, sigma, 0.5)

    def test_shift_zero_with_no_zero_block(self):
        # k = n leaves no zero block (n0 = 0): at shift 0 its kernel term is
        # 0, not -mass0 / 0, and the scan (delta = 0.5, so b' = 0) has no
        # candidate left and reports it as infeasible.
        state = state_of(Decomposition(L=np.eye(2), V=np.eye(2)), [1, 0], 0.5)
        assert state.spectrum.n0 == 0
        at = state.spectrum.at(0.0)
        assert (at.phi, at.phi_image, at.phi_kernel, at.d0) == (2.0, 2.0, 0.0, 0.0)
        schedule = compute_schedule(np.eye(2), 2, 0.5)
        assert schedule.b0 - schedule.delta == 0.0
        with pytest.raises(InfeasibilityError, match="no feasible candidate at step 3"):
            select_next(state, schedule, *shift_values(state, schedule))


class TestRunSelection:
    @pytest.mark.parametrize("eps", [0.5, 0.6, 0.8, 0.9])
    def test_identity_any_subset_works(self, eps):
        n = 8
        dec = from_standard_basis(np.eye(n))
        res = run_selection(dec, eps)
        t = math.floor(eps * eps * n)
        assert len(res.sigma) == t
        W = (dec.V @ dec.L.T)[res.sigma]
        assert gram_min_eigenvalue(W) == pytest.approx(1.0)
        assert 1.0 > (1 - eps) ** 2

    def test_120_frame(self):
        dec = Decomposition(L=np.eye(2), V=frame_120())
        res = run_selection(dec, 0.75)
        assert len(res.sigma) == 1
        lam = gram_min_eigenvalue((dec.V @ dec.L.T)[res.sigma])
        assert lam == pytest.approx(2.0 / 3.0)
        assert lam > (1 - 0.75) ** 2 * 2.0 / 3.0

    def test_vacuous(self):
        res = run_selection(from_standard_basis(np.eye(4)), 0.4)
        assert res.vacuous
        assert res.sigma == []
        assert res.traces == []

    def test_monotone_potential_traces(self):
        dec = Decomposition(L=np.eye(6), V=random_tight_frame(6, 12, 1))
        res = run_selection(dec, 0.7)
        phi = [res.traces[0].phi_before] + [tr.phi_after for tr in res.traces]
        for a, b in zip(phi, phi[1:]):
            assert b <= a + 1e-7 * abs(a)

    def test_determinism(self):
        dec = Decomposition(L=np.eye(5), V=random_tight_frame(5, 10, 9))
        r1 = run_selection(dec, 0.8)
        r2 = run_selection(dec, 0.8)
        assert r1.sigma == r2.sigma
        assert [t.to_dict() for t in r1.traces] == [t.to_dict() for t in r2.traces]

    def test_failed_step_carries_the_completed_traces(self, monkeypatch):
        # At RI_TOLERANCE_SCALE = 3e7 the kernel band of the CI's 24 x 24 ramp
        # instance takes in the smallest eigenvalue of the Gram of 5 chosen
        # rows: the error carries the 4 steps before it, those of scale 1.
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((24, 24)))
        dec = Decomposition(L=Q * np.linspace(1.0, 2.0, 24), V=random_tight_frame(24, 48, 0))
        full = run_selection(dec, 0.8).traces
        monkeypatch.setenv("RI_TOLERANCE_SCALE", "3e7")
        with pytest.raises(InvariantViolation, match="the Gram of the 5 chosen vectors") as err:
            run_selection(dec, 0.8)
        assert len(full) > 4 and len(err.value.traces) == 4
        assert [tr.chosen_index for tr in err.value.traces] == [tr.chosen_index for tr in full[:4]]

    def test_infeasible_step_carries_the_completed_traces(self, monkeypatch):
        select_next = rinv.selector.select_next

        def third_fails(state, *args):
            if len(state.grams.cols) == 2:
                raise InfeasibilityError("no feasible candidate at step 3")
            return select_next(state, *args)

        dec = Decomposition(L=np.eye(6), V=random_tight_frame(6, 12, 1))
        full = run_selection(dec, 0.9).traces
        monkeypatch.setattr(rinv.selector, "select_next", third_fails)
        with pytest.raises(InfeasibilityError) as err:
            run_selection(dec, 0.9)
        assert len(full) > 2 and err.value.traces == full[:2]

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((6, 6))
        L = L / np.linalg.norm(L, 2)
        dec = Decomposition(L=L, V=random_tight_frame(6, 12, 2))
        base = run_selection(dec, 0.9)
        for c in (3.0, 0.25, 1e-4, 1e-8, 1e4, 1e8):
            scaled = run_selection(Decomposition(L=c * L, V=dec.V), 0.9)
            assert scaled.sigma == base.sigma

    def test_permutation_equivariance(self):
        # Greedy's pick does not depend on the scan order (barring exact
        # ties), so index j of dec_p, dec's perm[j], is chosen as dec's is.
        dec = Decomposition(L=np.eye(5), V=random_tight_frame(5, 10, 6))
        res = run_selection(dec, 0.8, pivot_rule="greedy")
        rng = np.random.default_rng(0)
        perm = rng.permutation(dec.m)
        dec_p = permuted(dec, perm)
        res_p = run_selection(dec_p, 0.8, pivot_rule="greedy")
        assert perm[res_p.sigma].tolist() == res.sigma
        # same underlying vectors were selected
        np.testing.assert_array_equal(dec_p.V[res_p.sigma], dec.V[res.sigma])

    @pytest.mark.parametrize(
        "order, message",
        [
            (list(range(-1, -11, -1)), r"in \[0, 10\)"),
            ([99], r"in \[0, 10\)"),
            ([0, 1, 1], "repeated"),
            ([0.0, 1.0], "integer"),
            ([True, False], "integer"),
            (["0", "1"], "integer"),
            ([[0, 1], [2, 3]], "integer"),
        ],
        ids=["negative", "past-m", "repeated", "float", "bool", "str", "two-dimensional"],
    )
    def test_bad_scan_order(self, order, message):
        # permuted sets the scan order; verify's sigma follows the same rule.
        dec = Decomposition(L=np.eye(5), V=random_tight_frame(5, 10, 6))
        with pytest.raises(IndexRangeError, match=message):
            permuted(dec, order)
        with pytest.raises(IndexRangeError, match=message):
            verify(dec, 0.8, order)

    def test_partial_scan_order(self):
        # The walk scans in index order: a permutation that puts these six
        # first makes first-feasible take its t = 3 among them, in this order.
        dec = Decomposition(L=np.eye(5), V=random_tight_frame(5, 10, 6))
        order = [9, 3, 5, 0, 7, 1]
        perm = np.array(order + [2, 4, 6, 8])
        res = run_selection(permuted(dec, perm), 0.8)
        assert perm[res.sigma].tolist() == [9, 3, 5]

    def test_greedy_pivot(self):
        dec = from_standard_basis(np.eye(4))
        res = run_selection(dec, 0.5, pivot_rule="greedy")
        assert res.sigma == [0]  # symmetric candidates, smallest index wins ties
        dec2 = Decomposition(L=np.eye(6), V=random_tight_frame(6, 12, 8))
        res2 = run_selection(dec2, 0.8, pivot_rule="greedy")
        assert len(res2.sigma) == res2.schedule.steps_t

    def test_bad_pivot(self):
        # Checked at entry, so a vacuous run (t = 0 for diag(1, 0, 0, 0)) rejects it too.
        for L in (np.eye(4), np.diag([1.0, 0.0, 0.0, 0.0])):
            dec = from_standard_basis(L)
            with pytest.raises(ParameterError, match="unknown pivot rule 'nope'"):
                run_selection(dec, 0.5, pivot_rule="nope")
            with pytest.raises(ParameterError, match="unknown pivot rule 'nope'"):
                compare_to_guarantee(dec, 0.5, pivot_rule="nope")

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 8), extra=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
           epsilon=st.floats(0.3, 0.9, exclude_min=True, exclude_max=True))
    def test_index_list_forms_agree(self, n, extra, seed, epsilon):
        # A list, a tuple and int32 and int64 arrays name the same indices
        # to permuted and to verify; verify also ignores the order of sigma.
        rng = np.random.default_rng(seed)
        m = n + extra
        dec = Decomposition(L=rng.standard_normal((n, n)), V=random_tight_frame(n, m, seed))
        order = rng.permutation(m).tolist()
        base = run_selection(permuted(dec, order), epsilon)
        for form in (tuple(order), np.array(order, np.int32), np.array(order, np.int64)):
            assert run_selection(permuted(dec, form), epsilon) == base
        sigma = rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False).tolist()
        cert = verify(dec, epsilon, sigma)
        for form in (tuple(sigma), np.array(sigma, np.int32), np.array(sigma, np.int64),
                     sorted(sigma), sigma[::-1], rng.permutation(sigma)):
            assert verify(dec, epsilon, form) == cert

    def test_sherman_morrison_consistency(self):
        dec = Decomposition(L=np.eye(6), V=random_tight_frame(6, 12, 3))
        res = run_selection(dec, 0.7)
        A = np.zeros((6, 6))
        W = dec.V @ dec.L.T
        for tr in res.traces:
            A = A + np.outer(W[tr.chosen_index], W[tr.chosen_index])
            fresh = potential(A, tr.barrier_after, dec.L)
            assert tr.phi_after == pytest.approx(fresh, rel=1e-8)


class TestPostStepChecks:
    """Each InvariantViolation raised after a step, from the spectra of
    state_of before and after a walk's second step and a hand-set
    FeasibilityRecord."""

    @staticmethod
    def _second_step():
        dec = Decomposition(L=np.diag(np.linspace(1.0, 2.0, 6)), V=random_tight_frame(6, 12, 3))
        res = run_selection(dec, 0.8)
        assert len(res.sigma) == 2
        tr = res.traces[1]
        old = state_of(dec, res.sigma[:1], tr.barrier_before).spectrum
        new = state_of(dec, res.sigma, tr.barrier_after).spectrum
        return old, new, tr, FeasibilityRecord(-1.0 - tr.quadform_margin, tr.phi_after, True)

    def test_recorded_step_passes(self):
        old, new, tr, rec = self._second_step()
        _check_post_step(old, new, 2, tr.barrier_after, rec)

    def test_barrier_count(self):
        old, new, tr, rec = self._second_step()
        b_prime = float(np.mean(new.lam))  # above the smaller of the two eigenvalues
        with pytest.raises(InvariantViolation,
                           match="barrier invariant failed at step 2: 1 eigenvalues above"):
            _check_post_step(old, new, 2, b_prime, rec)

    def test_rank_one_update_disagrees(self):
        old, new, tr, rec = self._second_step()
        lower = tr.phi_after - 1e-3 * max(abs(tr.phi_after), 1.0)
        rec = FeasibilityRecord(rec.quadform, lower, True)
        with pytest.raises(InvariantViolation,
                           match="disagrees with fresh recomputation at step 2"):
            _check_post_step(old, new, 2, tr.barrier_after, rec)


class TestPotentialSplit:
    def test_zero_matrix(self):
        L = np.eye(3) * 2.0
        phi_P, phi_Q, qL = potential_split(np.zeros((3, 3)), 0.5, L)
        assert phi_P == 0.0
        assert qL == pytest.approx(12.0)
        assert phi_Q == pytest.approx(-24.0)

    def test_rank_one(self):
        A = np.zeros((2, 2))
        A[0, 0] = 1.0
        phi_P, phi_Q, qL = potential_split(A, 0.25, np.eye(2))
        assert phi_P == pytest.approx(1.0 / 0.75)
        assert phi_Q == pytest.approx(-4.0)
        assert qL == pytest.approx(1.0)

    def test_full_rank_empty_kernel(self):
        _, phi_Q, qL = potential_split(np.eye(3), 0.25, np.eye(3))
        assert qL == 0.0
        assert phi_Q == 0.0

    def test_split_sums_to_potential(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal(4)
        A = np.outer(w, w)
        L = rng.standard_normal((4, 4))
        b_prime = 0.1 * float(w @ w)
        phi_P, phi_Q, _ = potential_split(A, b_prime, L)
        assert phi_P + phi_Q == pytest.approx(potential(A, b_prime, L), rel=1e-8)


class TestStepPreconditions:
    def test_initial_state_all_true(self):
        dec = from_standard_basis(np.eye(4))
        schedule = compute_schedule(dec.L, 4, 0.5)
        state = state_of(dec, [], schedule.b0)
        diag = check_step_preconditions(state, schedule, *shift_values(state, schedule))
        assert all(diag._asdict().values())

    def test_every_step_of_a_run(self):
        dec = from_standard_basis(np.eye(8))
        res = run_selection(dec, 0.5)
        assert all(all(tr.preconditions._asdict().values()) for tr in res.traces)

    def test_corrupted_barrier_window(self):
        dec = from_standard_basis(np.eye(4))
        schedule = compute_schedule(dec.L, 4, 0.5)
        # a barrier below delta violates the window
        state = state_of(dec, [], schedule.delta / 2)
        diag = check_step_preconditions(state, schedule, *shift_values(state, schedule))
        assert not diag.barrier_window_ok
