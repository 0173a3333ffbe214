"""Matrix primitive tests, checked against numpy/scipy oracles: the walk's
shifted spectrum and interlacing check, the dense shifted_inverse reference
and the certificate's gram_min_eigenvalue."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rinv.certificate import gram_min_eigenvalue
from rinv.errors import InvariantViolation, NormRangeError, SingularShiftError
from rinv.selector import (candidate_feasible, check_interlacing, potential, shifted_inverse,
                           shifted_spectrum)
from rinv.tolerances import default_tolerances


class TestShiftedInverse:
    def test_zero_matrix(self):
        M = shifted_inverse(np.zeros((2, 2)), 0.5)
        np.testing.assert_allclose(M, -2 * np.eye(2))

    def test_diagonal(self):
        M = shifted_inverse(np.diag([1.0, 0.0]), 0.25)
        np.testing.assert_allclose(M, np.diag([4.0 / 3.0, -4.0]))

    def test_residual_random_psd(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((4, 4))
        S = B @ B.T
        shift = -0.1  # safely below the spectrum
        M = shifted_inverse(S, shift)
        resid = M @ (S - shift * np.eye(4)) - np.eye(4)
        assert np.linalg.norm(resid) <= 1e-9 * 4

    def test_shift_on_eigenvalue(self):
        with pytest.raises(SingularShiftError):
            shifted_inverse(np.diag([1.0, 2.0]), 1.0)


def _whole_array_singular(lam, shift, tol) -> bool:
    """The shift guard with ||S|| read from every entry of lam, sorted or not."""
    scale = max(abs(shift), float(np.abs(lam).max(initial=0.0)))
    return float(np.abs(lam - shift).min(initial=np.inf)) <= tol.shift_gap * scale


_magnitudes = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _spectra(draw):
    """A walk's poles (descending, positive, with or without the trailing 0 of
    the implicit block), k = 0 included, or eigh's ascending output."""
    k = draw(st.integers(0, 6))
    if draw(st.booleans()):
        lam = sorted(draw(st.lists(_magnitudes, min_size=k, max_size=k)), reverse=True)
        return np.array(lam + [0.0] * draw(st.booleans()))
    B = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=k * k, max_size=k * k)))
    B = B.reshape(k, k)
    return np.linalg.eigh(B + B.T)[0]


@st.composite
def _spectrum_and_shift(draw):
    """A spectrum and a shift on one of its values, inside or just outside
    shift_gap times its scale of one, anywhere, or negative."""
    lam, gap = draw(_spectra()), default_tolerances().shift_gap
    scale = float(np.abs(lam).max(initial=1.0)) or 1.0
    where = draw(st.sampled_from(["on", "inside", "edge", "outside", "any", "negative"]))
    if where in ("any", "negative") or not len(lam):
        shift = draw(_magnitudes)
        return lam, -shift if where == "negative" else shift
    pole, sign = float(draw(st.sampled_from(lam))), draw(st.sampled_from([-1.0, 1.0]))
    factor = {"on": 0.0, "inside": draw(st.floats(0.0, 0.999)), "edge": 1.0,
              "outside": draw(st.floats(1.001, 4.0))}[where]
    return lam, pole + sign * factor * gap * scale


@given(_spectrum_and_shift())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_shift_guard_reads_the_ends_of_sorted_spectra(case):
    # shifted_spectrum takes ||S|| from the two ends of the sorted lam; it must
    # refuse a shift exactly when the whole-array form does and otherwise give
    # 1 / (lam - shift) bit for bit.
    lam, shift = case
    tol = default_tolerances()
    if _whole_array_singular(lam, shift, tol):
        with pytest.raises(SingularShiftError):
            shifted_spectrum(lam, shift, tol)
    else:
        assert shifted_spectrum(lam, shift, tol).tobytes() == (1.0 / (lam - shift)).tobytes()


class TestShermanMorrison:
    """The rank-one update as the candidate test applies it, through
    candidate_feasible, the scalar reference of the walk's scan: with
    M = (A - b'I)^{-1}, Phi_b'(A + w w^T) = Phi_b'(A) - ||L^T M w||^2 /
    (1 + w^T M w)."""

    def test_diagonal_rank_one(self):
        # A = 0, b' = 2, L = I, w = e1: -1 - 0.25 / 0.5 = 1 / (1 - 2) + 1 / (0 - 2).
        A, w = np.zeros((2, 2)), np.array([1.0, 0.0])
        rec = candidate_feasible(A, shifted_inverse(A, 2.0), np.eye(2), w, 0.0, -1.0)
        assert (rec.quadform, rec.potential_after_add) == (-0.5, -1.5)

    def test_zero_update(self):
        # A zero vector adds no rank: it is rejected, not updated.
        A = np.diag([2.0, 3.0])
        rec = candidate_feasible(A, shifted_inverse(A, 1.0), np.eye(2), np.zeros(2), 0.0, 0.0)
        assert not rec.feasible and rec.reason == "zero-vector"

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_inverse(self, seed):
        # A of rank r < n, b' halfway to its smallest nonzero eigenvalue.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        B = rng.standard_normal((n, int(rng.integers(0, n))))
        A, w, L = B @ B.T, rng.standard_normal(n), rng.standard_normal((n, n))
        lam = np.linalg.eigvalsh(A)
        b_prime = 0.5 * (lam[lam > 1e-9].min() if B.size else 1.0)
        rec = candidate_feasible(A, shifted_inverse(A, b_prime), L, w, 0.0,
                                 potential(A, b_prime, L))
        direct = potential(A + np.outer(w, w), b_prime, L)
        assert rec.potential_after_add == pytest.approx(direct, rel=1e-9)


class TestGramMinEigenvalue:
    def test_orthonormal_pair(self):
        assert gram_min_eigenvalue([np.eye(3)[0], np.eye(3)[1]]) == pytest.approx(1.0, abs=1e-12)

    def test_dependent_pair(self):
        e1 = np.array([1.0, 0.0])
        assert gram_min_eigenvalue([e1, e1]) == pytest.approx(0.0, abs=1e-12)

    def test_single_vector(self):
        assert gram_min_eigenvalue([np.array([3.0, 0.0])]) == pytest.approx(9.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormal_subset_is_one(self, seed):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        assert gram_min_eigenvalue(list(Q.T)) == pytest.approx(1.0, abs=1e-12)

    def test_stack_gives_each_value(self):
        # The oracle's batch: one float per (t, n) slice, bit for bit.
        W = np.random.default_rng(0).standard_normal((5, 3, 4))
        vals = gram_min_eigenvalue(W)
        assert vals.shape == (5,)
        assert vals.tolist() == [gram_min_eigenvalue(w) for w in W]

    @pytest.mark.parametrize("W", [[[1e200, 0.0]], [[[1.0, 0.0]], [[1e200, 0.0]]]],
                             ids=["rows", "stack"])
    def test_overflow_is_typed(self, W):
        with pytest.raises(NormRangeError, match="overflows the float range"):
            gram_min_eigenvalue(W)


class TestInterlacing:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank_one_psd_update(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((5, 5))
        A = B @ B.T
        w = rng.standard_normal(5)
        before = np.linalg.eigvalsh(A)[::-1]
        after = np.linalg.eigvalsh(A + np.outer(w, w))[::-1]
        check_interlacing(before, after, 1e-9)

    def test_detects_violation(self):
        with pytest.raises(InvariantViolation):
            check_interlacing(np.array([2.0, 1.0]), np.array([3.0, 0.5]), 1e-9)

    @pytest.mark.parametrize("c", [1.0, 1e-5, 1e-6])
    def test_slack_scales_with_the_spectrum(self, c):
        # A = sum of two rank-one terms, then the third: the spectra passed in
        # swapped order violate interlacing at every scale of W.
        W = c * np.random.default_rng(3).standard_normal((3, 8))
        before = np.linalg.eigvalsh(W[:2].T @ W[:2])[::-1]
        after = np.linalg.eigvalsh(W.T @ W)[::-1]
        slack = default_tolerances().interlacing_slack
        check_interlacing(before, after, slack)
        with pytest.raises(InvariantViolation):
            check_interlacing(after, before, slack)

    @pytest.mark.parametrize("before, after, gap, top", [
        ([5.0, 1.0], [4.0, 1.0], 1.0, 5.0),  # the largest |value| is before[0]
        ([1.0, 0.5], [3.0, 0.48], 0.02, 3.0),  # after[0]
        ([0.5, -3.0], [0.48, -2.9], 0.02, 3.0),  # before[-1]
        ([1.0, -1.0], [1.0, -3.0], 2.0, 3.0),  # after[-1]
    ])
    def test_slack_scale_reads_each_end(self, before, after, gap, top):
        # One eigenvalue drops by gap; the slack is taken times the largest
        # |eigenvalue|, found at one end of one spectrum only.
        a, b = np.array(before), np.array(after)
        check_interlacing(a, b, 1.01 * gap / top)
        with pytest.raises(InvariantViolation):
            check_interlacing(a, b, 0.99 * gap / top)
