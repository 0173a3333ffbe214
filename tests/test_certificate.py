"""Certificate verification tests."""

import math

import numpy as np
import pytest

from rinv import (
    Decomposition,
    from_standard_basis,
    random_tight_frame,
    run_selection,
    verify,
    verify_classical,
)
from rinv.errors import (
    DimensionError,
    IndexRangeError,
    ModeError,
    NormRangeError,
    ZeroOperatorError,
)


class TestVerify:
    def test_identity_singleton(self):
        dec = from_standard_basis(np.eye(4))
        cert = verify(dec, 0.5, [0])
        assert cert.lambda_min == pytest.approx(1.0)
        assert cert.guarantee_bound == pytest.approx(0.25)
        assert cert.subset_size_bound == 1
        assert cert.independent
        assert cert.passes

    def test_empty_sigma_vacuous(self):
        dec = from_standard_basis(np.eye(4))
        cert = verify(dec, 0.4, [])
        assert cert.subset_size_bound == 0
        assert cert.vacuous
        assert cert.passes
        assert math.isinf(cert.lambda_min)
        assert cert.to_json_dict()["lambda_min"] is None

    def test_dependent_pair_fails(self):
        # both mapped vectors point along e1
        L = np.array([[1.0, 1.0], [0.0, 0.0]])
        dec = from_standard_basis(L)
        cert = verify(dec, 0.9, [0, 1])
        assert not cert.independent
        assert not cert.passes

    def test_bad_indices(self):
        dec = from_standard_basis(np.eye(3))
        with pytest.raises(IndexRangeError):
            verify(dec, 0.5, [0, 0])
        with pytest.raises(IndexRangeError):
            verify(dec, 0.5, [3])
        # Not cast: 0.7 is not index 0, True and '1' are not index 1.
        for sigma in ([0.7], [True], ["1"], [[0, 1]], [[0, 1], [2]]):
            with pytest.raises(IndexRangeError, match="integer indices"):
                verify(dec, 0.5, sigma)

    def test_vectors_outside_R_n_are_typed(self):
        dec = Decomposition(L=np.eye(4), V=np.ones((5, 3)))
        with pytest.raises(DimensionError, match="R\\^4"):
            verify(dec, 0.5, [0, 4])

    def test_non_finite_vector_is_typed(self):
        # Not a certificate with lambda_min = nan.
        V = random_tight_frame(4, 8, 1)
        V[2] = np.nan
        with pytest.raises(DimensionError, match="non-finite"):
            verify(Decomposition(L=np.eye(4), V=V), 0.5, [0, 2])

    @pytest.mark.parametrize("scale, big, sigma", [(1.0, 1e200, [0]), (1.0, 1e200, [0, 1]),
                                                   (1e50, 1e300, [0])],
                             ids=["gram-row", "gram-pair", "w-row"])
    def test_overflowing_gram_is_typed(self, scale, big, sigma):
        # Not overflow warnings and lambda_min = inf or nan. In the last case
        # w = L v itself overflows, while ||L||_F^2 is in range.
        dec = Decomposition(L=scale * np.eye(2), V=np.array([[big, 0.0], [0.0, 1.0]]))
        with pytest.raises(NormRangeError, match="Gram matrix W W\\^T"):
            verify(dec, 0.5, sigma)

    def test_zero_operator_is_typed(self):
        dec = Decomposition(L=np.zeros((3, 3)), V=np.eye(3))
        with pytest.raises(ZeroOperatorError):
            verify(dec, 0.5, [0])

    def test_epsilon_is_the_float_given(self):
        # 0.7 * 0.7 * 100 == 48.99999999999999 in float64, so t is 48, not 49,
        # for the selector and the certificate alike.
        dec = from_standard_basis(np.eye(100))
        result = run_selection(dec, 0.7)
        cert = verify(dec, 0.7, result.sigma)
        assert result.schedule.steps_t == len(result.sigma) == 48
        assert cert.subset_size_bound == 48
        assert cert.passes

    def test_recomputed_from_scratch(self):
        dec = Decomposition(L=np.eye(5), V=random_tight_frame(5, 10, 2))
        res = run_selection(dec, 0.8)
        cert = verify(dec, 0.8, res.sigma)
        assert cert.passes
        assert cert.sigma == sorted(res.sigma)

    def test_lambda_min_matches_spectrum_of_A(self):
        # same quantity two ways: Gram of the selected vectors vs the
        # smallest nonzero eigenvalue of the accumulated matrix
        dec = Decomposition(L=np.eye(6), V=random_tight_frame(6, 12, 4))
        res = run_selection(dec, 0.8)
        cert = verify(dec, 0.8, res.sigma)
        W = (dec.V @ dec.L.T)[res.sigma]
        A = W.T @ W
        lam = np.linalg.eigvalsh(A)
        nonzero = lam[lam > 1e-8 * max(1.0, lam.max())]
        assert cert.lambda_min == pytest.approx(nonzero.min(), rel=1e-8)


class TestVerifyClassical:
    def test_identity(self):
        for eps in (0.5, 0.7):
            n = 6
            t = math.floor(eps * eps * n)
            cert = verify_classical(np.eye(n), eps, list(range(t)))
            assert cert.lambda_min == pytest.approx(1.0)
            assert cert.guarantee_bound == pytest.approx((1 - eps) ** 2)
            assert cert.passes

    def test_end_to_end_random_unit_columns(self):
        rng = np.random.default_rng(8)
        L = rng.standard_normal((6, 6))
        L = L / np.linalg.norm(L, axis=0)
        dec = from_standard_basis(L)
        res = run_selection(dec, 0.5)
        cert = verify_classical(L, 0.5, res.sigma)
        assert cert.passes
        assert len(res.sigma) >= math.floor(0.25 * 6 / np.linalg.norm(L, 2) ** 2)

    def test_singular_L_full_sigma_fails(self):
        L = np.zeros((3, 3))
        L[:, 0] = [1.0, 0.0, 0.0]
        L[:, 1] = [1.0, 0.0, 0.0]
        L[:, 2] = [0.0, 1.0, 0.0]
        cert = verify_classical(L, 0.5, [0, 1, 2])
        assert not cert.independent
        assert not cert.passes

    def test_non_unit_columns_rejected(self):
        with pytest.raises(ModeError):
            verify_classical(np.diag([3.0, 1.0]), 0.5, [0])
