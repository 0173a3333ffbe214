"""Decomposition model and tight-frame generator tests."""

import numpy as np
import pytest

from rinv import (
    Decomposition,
    Mode,
    compare_to_guarantee,
    from_standard_basis,
    permuted,
    random_tight_frame,
    run_selection,
    validate,
)
from rinv.errors import (
    ColumnNormError,
    DecompositionError,
    DimensionError,
    IndexRangeError,
    InfeasibleFrameError,
)


def frame_120():
    """Three vectors sqrt(2/3)(cos t, sin t) at 0, 120, 240 degrees."""
    angles = np.deg2rad([0.0, 120.0, 240.0])
    return np.sqrt(2.0 / 3.0) * np.stack([np.cos(angles), np.sin(angles)], axis=1)


class TestValidate:
    def test_standard_basis(self):
        dec = Decomposition(L=np.eye(4), V=np.eye(4), mode=Mode.FRAME)
        assert validate(dec) is dec

    def test_120_degree_frame(self):
        V = frame_120()
        # direct outer-product sum, defect far below tolerance
        defect = np.linalg.norm(V.T @ V - np.eye(2))
        assert defect < 1e-12
        validate(Decomposition(L=np.eye(2), V=V, mode=Mode.FRAME))

    def test_doubled_vector_rejected(self):
        V = np.array([[1.0], [1.0]])
        with pytest.raises(DecompositionError) as exc:
            validate(Decomposition(L=np.eye(1), V=V, mode=Mode.FRAME))
        assert exc.value.defect == pytest.approx(1.0)

    def test_idempotent(self):
        dec = Decomposition(L=np.eye(3), V=random_tight_frame(3, 5, 0))
        again = validate(validate(dec))
        assert again is dec

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            validate(Decomposition(L=np.eye(3), V=np.eye(4)))

    def test_rectangular_L_rejected(self):
        with pytest.raises(DimensionError, match="zero-pad"):
            validate(Decomposition(L=np.ones((2, 3)), V=np.eye(3)))


class TestFromStandardBasis:
    def test_identity(self):
        dec = from_standard_basis(np.eye(3))
        np.testing.assert_array_equal(dec.V, np.eye(3))
        assert dec.mode == Mode.FRAME

    def test_classical_needs_unit_columns(self):
        L = np.diag([3.0, 1.0])
        from_standard_basis(L)  # frame mode fine
        with pytest.raises(ColumnNormError) as exc:
            from_standard_basis(L, classical=True)
        assert exc.value.worst_index == 0

    def test_classical_normalized_columns(self):
        rng = np.random.default_rng(3)
        L = rng.standard_normal((5, 5))
        L = L / np.linalg.norm(L, axis=0)
        dec = from_standard_basis(L, classical=True)
        assert dec.mode == Mode.CLASSICAL_COLUMNS


class TestRandomTightFrame:
    def test_n1_m1_is_sign(self):
        for seed in (0, 1, 5):
            V = random_tight_frame(1, 1, seed)
            assert abs(abs(V[0, 0]) - 1.0) < 1e-14

    def test_validates(self):
        V = random_tight_frame(3, 6, 7)
        validate(Decomposition(L=np.eye(3), V=V))

    def test_infeasible(self):
        with pytest.raises(InfeasibleFrameError):
            random_tight_frame(4, 3, 0)

    def test_trace_equals_n(self):
        for n, m, seed in [(2, 4, 0), (5, 9, 4), (6, 6, 11)]:
            V = random_tight_frame(n, m, seed)
            assert np.sum(V * V) == pytest.approx(n, abs=1e-8)

    def test_seed_reproducibility(self):
        a = random_tight_frame(4, 9, 42)
        b = random_tight_frame(4, 9, 42)
        assert np.array_equal(a, b)
        c = random_tight_frame(4, 9, 43)
        assert not np.array_equal(a, c)


class TestPermuted:
    def test_rows_reordered(self):
        dec = Decomposition(L=np.eye(2), V=frame_120())
        perm = [2, 0, 1]
        out = permuted(dec, perm)
        np.testing.assert_array_equal(out.V, dec.V[perm])

    def test_rejects_non_permutation(self):
        dec = Decomposition(L=np.eye(2), V=frame_120())
        with pytest.raises(IndexRangeError, match="perm contains repeated indices"):
            permuted(dec, [0, 0, 1])
        with pytest.raises(DimensionError, match="m = 3 entries, got 2"):
            permuted(dec, [0, 1])

    def test_rejects_float_perm(self):
        # Not cast to int: [0.2, 1, 2] is not the identity.
        dec = Decomposition(L=np.eye(2), V=frame_120())
        with pytest.raises(IndexRangeError, match="perm must be a sequence of integer indices"):
            permuted(dec, [0.2, 1, 2])


class TestNestedLists:
    @pytest.mark.parametrize("pivot", ["first", "greedy"])
    def test_walk_and_oracle_match_array_input(self, pivot):
        # L and V given as nested lists select and sandwich as the arrays do.
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        dec = Decomposition(L=Q * np.linspace(1.0, 2.0, 24), V=random_tight_frame(24, 48, 2))
        nested = Decomposition(L=dec.L.tolist(), V=dec.V.tolist())
        assert validate(nested) is nested
        assert (nested.n, nested.m) == (24, 48)
        np.testing.assert_array_equal(nested.mapped_vectors(), dec.mapped_vectors())
        result = run_selection(nested, 0.5, pivot_rule=pivot)
        assert result.sigma == run_selection(dec, 0.5, pivot_rule=pivot).sigma
        assert len(result.sigma) == result.schedule.steps_t > 1
        assert (compare_to_guarantee(nested, 0.5, pivot_rule=pivot)
                == compare_to_guarantee(dec, 0.5, pivot_rule=pivot))
        perm = np.random.default_rng(3).permutation(48)
        np.testing.assert_array_equal(permuted(nested, perm).V, dec.V[perm])
