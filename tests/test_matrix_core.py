"""Matrix primitive tests, checked against numpy/scipy oracles."""

import numpy as np
import pytest

from rinv.matrix_core import (
    check_interlacing,
    frobenius_norm_sq,
    gram_min_eigenvalue,
    sherman_morrison_inverse,
    shifted_inverse,
    spectral_norm,
    sym_eigendecomposition,
)
from rinv.errors import (
    DimensionError,
    EmptySetError,
    InvariantViolation,
    SingularShiftError,
    SingularUpdateError,
    SymmetryError,
)


class TestEigendecomposition:
    def test_identity(self):
        lam, U = sym_eigendecomposition(np.eye(3))
        np.testing.assert_allclose(lam, [1, 1, 1])

    def test_diagonal(self):
        lam, U = sym_eigendecomposition(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(lam, [3, 1])
        np.testing.assert_allclose(np.abs(U), np.eye(2), atol=1e-14)

    def test_descending_and_reconstruction(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((5, 5))
        S = S + S.T
        lam, U = sym_eigendecomposition(S)
        assert np.all(np.diff(lam) <= 0)
        scale = max(1.0, np.abs(S).max())
        assert np.abs((U * lam) @ U.T - S).max() <= 1e-10 * scale
        np.testing.assert_allclose(U.T @ U, np.eye(5), atol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            sym_eigendecomposition(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sym_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


class TestShermanMorrison:
    def test_diagonal_rank_one(self):
        out = sherman_morrison_inverse(0.5 * np.eye(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([1.0 / 3.0, 0.5]))

    def test_zero_update(self):
        M_inv = np.diag([2.0, 3.0])
        out = sherman_morrison_inverse(M_inv, np.zeros(2))
        np.testing.assert_allclose(out, M_inv)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_inverse(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 9)
        B = rng.standard_normal((n, n))
        M = B @ B.T + np.eye(n)  # SPD, denominator >= 1
        w = rng.standard_normal(n)
        out = sherman_morrison_inverse(np.linalg.inv(M), w)
        direct = np.linalg.inv(M + np.outer(w, w))
        assert np.abs(out - direct).max() <= 1e-9 * max(1.0, np.abs(direct).max())

    def test_singular_denominator(self):
        # M_inv = -I, w = e1: denominator 1 + w^T M_inv w = 0
        with pytest.raises(SingularUpdateError):
            sherman_morrison_inverse(-np.eye(1), np.array([1.0]))


class TestNorms:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0)
        assert frobenius_norm_sq(np.eye(4)) == pytest.approx(4.0)

    def test_against_svd(self):
        rng = np.random.default_rng(2)
        L = rng.standard_normal((6, 6))
        s = np.linalg.svd(L, compute_uv=False)
        assert spectral_norm(L) == pytest.approx(s[0])


class TestGramMinEigenvalue:
    def test_orthonormal_pair(self):
        assert gram_min_eigenvalue([np.eye(3)[0], np.eye(3)[1]]) == pytest.approx(1.0, abs=1e-12)

    def test_dependent_pair(self):
        e1 = np.array([1.0, 0.0])
        assert gram_min_eigenvalue([e1, e1]) == pytest.approx(0.0, abs=1e-12)

    def test_single_vector(self):
        assert gram_min_eigenvalue([np.array([3.0, 0.0])]) == pytest.approx(9.0)

    def test_empty(self):
        with pytest.raises(EmptySetError):
            gram_min_eigenvalue([])

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormal_subset_is_one(self, seed):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        assert gram_min_eigenvalue(list(Q.T)) == pytest.approx(1.0, abs=1e-12)


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
