"""Barrier selection loop: schedule, potential, feasibility, invariants."""

import math

import numpy as np
import pytest

from rinv import (
    Decomposition,
    compute_schedule,
    from_standard_basis,
    permuted,
    random_tight_frame,
    run_selection,
)
from rinv.errors import ParameterError, ZeroOperatorError
from rinv.matrix_core import gram_min_eigenvalue
from rinv.selector import (
    SelectionState,
    candidate_feasible,
    check_step_preconditions,
    potential,
    potential_split,
    select_next,
    shifted_inverse,
)


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
        for eps in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                compute_schedule(np.eye(2), 2, eps)

    def test_zero_operator(self):
        with pytest.raises(ZeroOperatorError):
            compute_schedule(np.zeros((2, 2)), 2, 0.5)

    def test_step_budget_below_b0(self):
        for eps in (0.3, 0.5, 0.9):
            s = compute_schedule(np.eye(10), 20, eps)
            if s.steps_t >= 1:
                assert s.steps_t * s.delta < s.b0


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


class TestSelectNext:
    def test_first_feasible_is_smallest_index(self):
        dec = from_standard_basis(np.eye(4))
        schedule = compute_schedule(dec.L, 4, 0.5)
        state = SelectionState.of(dec, [], schedule.b0)
        chosen, rec, scanned = select_next(state, schedule, dec)
        assert chosen == 0
        assert rec.feasible
        assert scanned == 1

    def test_matches_exhaustive_scan(self):
        dec = Decomposition(L=np.eye(2), V=frame_120())
        schedule = compute_schedule(dec.L, 3, 0.75)
        state = SelectionState.of(dec, [], schedule.b0)
        chosen, rec, _ = select_next(state, schedule, dec)
        # verify against an independent scan of all three candidates
        A = np.zeros((2, 2))
        M = shifted_inverse(A, schedule.b0 - schedule.delta)
        phi_b = potential(A, schedule.b0, dec.L)
        phi_bp = potential(A, schedule.b0 - schedule.delta, dec.L)
        feasible = [
            j
            for j, w in enumerate(dec.mapped_vectors())
            if candidate_feasible(A, M, dec.L, w, phi_b, phi_bp).feasible
        ]
        assert chosen == min(feasible)


class TestRunSelection:
    @pytest.mark.parametrize("eps", [0.5, 0.6, 0.8, 0.9])
    def test_identity_any_subset_works(self, eps):
        n = 8
        dec = from_standard_basis(np.eye(n))
        res = run_selection(dec, eps)
        t = math.floor(eps * eps * n)
        assert len(res.sigma) == t
        W = dec.mapped_vectors()[res.sigma]
        assert gram_min_eigenvalue(W) == pytest.approx(1.0)
        assert 1.0 > (1 - eps) ** 2

    def test_120_frame(self):
        dec = Decomposition(L=np.eye(2), V=frame_120())
        res = run_selection(dec, 0.75)
        assert len(res.sigma) == 1
        lam = gram_min_eigenvalue(dec.mapped_vectors()[res.sigma])
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

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((6, 6))
        L = L / np.linalg.norm(L, 2)
        dec = Decomposition(L=L, V=random_tight_frame(6, 12, 2))
        base = run_selection(dec, 0.9)
        for c in (3.0, 0.25, 1e-4, 1e-8):
            scaled = run_selection(Decomposition(L=c * L, V=dec.V), 0.9)
            assert scaled.sigma == base.sigma

    def test_permutation_equivariance(self):
        dec = Decomposition(L=np.eye(5), V=random_tight_frame(5, 10, 6))
        res = run_selection(dec, 0.8)
        rng = np.random.default_rng(0)
        perm = rng.permutation(dec.m)
        dec_p = permuted(dec, perm)
        # scan the permuted rows in their original-vector order
        res_p = run_selection(dec_p, 0.8, scan_order=np.argsort(perm))
        inv = np.argsort(perm)
        assert sorted(res_p.sigma) == sorted(inv[i] for i in res.sigma)
        # same underlying vectors were selected
        np.testing.assert_array_equal(
            dec_p.V[[inv[i] for i in sorted(res.sigma)]], dec.V[sorted(res.sigma)]
        )

    def test_greedy_pivot(self):
        dec = from_standard_basis(np.eye(4))
        res = run_selection(dec, 0.5, pivot_rule="greedy")
        assert res.sigma == [0]  # symmetric candidates, smallest index wins ties
        dec2 = Decomposition(L=np.eye(6), V=random_tight_frame(6, 12, 8))
        res2 = run_selection(dec2, 0.8, pivot_rule="greedy")
        assert len(res2.sigma) == res2.schedule.steps_t

    def test_bad_pivot(self):
        with pytest.raises(ParameterError):
            run_selection(from_standard_basis(np.eye(4)), 0.5, pivot_rule="nope")

    def test_sherman_morrison_consistency(self):
        dec = Decomposition(L=np.eye(6), V=random_tight_frame(6, 12, 3))
        res = run_selection(dec, 0.7)
        A = np.zeros((6, 6))
        W = dec.mapped_vectors()
        for tr in res.traces:
            A = A + np.outer(W[tr.chosen_index], W[tr.chosen_index])
            fresh = potential(A, tr.barrier_after, dec.L)
            assert tr.phi_after == pytest.approx(fresh, rel=1e-8)


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
        state = SelectionState.of(dec, [], schedule.b0)
        diag = check_step_preconditions(state, schedule)
        assert diag.all_ok()

    def test_every_step_of_a_run(self):
        dec = from_standard_basis(np.eye(8))
        res = run_selection(dec, 0.5)
        assert all(tr.preconditions.all_ok() for tr in res.traces)

    def test_corrupted_barrier_window(self):
        dec = from_standard_basis(np.eye(4))
        schedule = compute_schedule(dec.L, 4, 0.5)
        # a barrier below delta violates the window
        state = SelectionState.of(dec, [], schedule.delta / 2)
        diag = check_step_preconditions(state, schedule)
        assert not diag.barrier_window_ok
