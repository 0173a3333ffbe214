"""Exhaustive oracle tests. The oracle never touches the selector."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rinv import (
    Decomposition,
    compare_to_guarantee,
    exhaustive_best_subset,
    from_standard_basis,
    random_tight_frame,
)
import rinv.oracle
from rinv.errors import SubsetTooLargeError
from rinv.tolerances import default_tolerances


def frame_120():
    angles = np.deg2rad([0.0, 120.0, 240.0])
    return np.sqrt(2.0 / 3.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)


class TestExhaustiveBestSubset:
    def test_larger_column_wins(self):
        dec = from_standard_basis(np.diag([3.0, 1.0]))
        sigma, lam = exhaustive_best_subset(dec, 1)
        assert sigma == [0]
        assert lam == pytest.approx(9.0)

    def test_tie_break_lexicographic(self):
        dec = Decomposition(L=np.eye(2), V=frame_120())
        sigma, lam = exhaustive_best_subset(dec, 1)
        assert sigma == [0]  # all three singletons are equal
        assert lam == pytest.approx(2.0 / 3.0)

    def test_empty_subset_sentinel(self):
        dec = from_standard_basis(np.eye(3))
        sigma, lam = exhaustive_best_subset(dec, 0)
        assert sigma == []
        assert math.isinf(lam)

    def test_guard(self):
        dec = Decomposition(L=np.eye(10), V=random_tight_frame(10, 30, 0))
        with pytest.raises(SubsetTooLargeError):
            exhaustive_best_subset(dec, 15)

    def test_batch_size_irrelevant(self, monkeypatch):
        dec = Decomposition(L=np.eye(4), V=random_tight_frame(4, 9, 5))
        results = []
        for batch in (1, 7, 4096):
            monkeypatch.setattr(rinv.oracle, "_BATCH", batch)
            results.append(exhaustive_best_subset(dec, 3))
        assert all(r == results[0] for r in results)

    def test_beats_any_specific_subset(self):
        dec = Decomposition(L=np.eye(3), V=random_tight_frame(3, 7, 1))
        sigma, lam = exhaustive_best_subset(dec, 2)
        W = dec.mapped_vectors()
        for pair in [(0, 1), (2, 5), (4, 6)]:
            G = W[list(pair)] @ W[list(pair)].T
            assert np.linalg.eigvalsh(G)[0] <= lam + 1e-12


class TestCompareToGuarantee:
    def test_identity(self):
        report = compare_to_guarantee(from_standard_basis(np.eye(6)), 0.5)
        assert report.bound == pytest.approx(0.25)
        assert report.algo_lambda == pytest.approx(1.0)
        assert report.oracle_lambda == pytest.approx(1.0)

    def test_random_frame_chain(self):
        dec = Decomposition(L=np.eye(4), V=random_tight_frame(4, 8, 3))
        report = compare_to_guarantee(dec, 0.6)
        assert report.bound < report.algo_lambda <= report.oracle_lambda + 1e-9

    def test_vacuous(self):
        report = compare_to_guarantee(from_standard_basis(np.eye(4)), 0.4)
        assert report.vacuous
        assert report.sigma == []

    def test_oracle_margin_is_relative(self):
        # At ||L|| ~ 1e4 the algorithm and the oracle pick the same subset, and
        # their Gram lambda_min of about 1.1e9 can differ in the last ulp.
        rng = np.random.default_rng(6)
        L = 1e4 * rng.standard_normal((8, 8))
        report = compare_to_guarantee(Decomposition(L=L, V=random_tight_frame(8, 16, 6)), 0.9)
        assert report.sigma == report.oracle_sigma

    def test_caller_tolerances_reach_the_oracle(self, monkeypatch):
        dec = Decomposition(L=np.eye(4), V=random_tight_frame(4, 8, 3))
        tol = replace(default_tolerances(), oracle_tie=0.5)
        seen = []

        def spy(dec, t, tol=None):
            seen.append(tol)
            return exhaustive_best_subset(dec, t, tol)

        monkeypatch.setattr(rinv.oracle, "exhaustive_best_subset", spy)
        compare_to_guarantee(dec, 0.6, tol=tol)
        assert seen == [tol]
