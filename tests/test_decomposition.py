"""Decomposition model and tight-frame generator tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rinv import (
    Decomposition,
    Mode,
    compare_to_guarantee,
    from_standard_basis,
    permuted,
    random_tight_frame,
    run_selection,
    validate,
    verify,
    verify_classical,
)
from rinv.errors import (
    ColumnNormError,
    DecompositionError,
    DimensionError,
    IndexRangeError,
    InfeasibleFrameError,
    ModeError,
    ParameterError,
    RinvError,
    ZeroOperatorError,
)
from rinv.decomposition import checked_indices, square_operator


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

    @pytest.mark.parametrize("bad", [np.eye(2) * 1j, "x", [[1.0], [0.0, 1.0]], [[None, 0.0], [0.0, 1.0]]],
                             ids=["complex", "str", "ragged", "object"])
    def test_non_real_L_or_V_rejected(self, bad):
        # Not cast: a complex entry would lose its imaginary part.
        with pytest.raises(DimensionError, match="L must be a rectangular array of real numbers"):
            square_operator(bad)
        with pytest.raises(DimensionError, match="L must be a rectangular array of real numbers"):
            validate(Decomposition(L=bad, V=np.eye(2)))
        with pytest.raises(DimensionError, match="V must be a rectangular array of real numbers"):
            validate(Decomposition(L=np.eye(2), V=bad))

    @pytest.mark.parametrize("mode", [Mode.FRAME, Mode.CLASSICAL_COLUMNS])
    def test_overflow_fails_the_check(self, mode):
        # Entries whose squares overflow fail the mode's check as inf, with no
        # RuntimeWarning (an error under this suite's filterwarnings).
        big = np.full((2, 2), 1e200)
        columns = mode == Mode.CLASSICAL_COLUMNS
        with pytest.raises(ColumnNormError if columns else DecompositionError, match="inf"):
            validate(Decomposition(L=big, V=np.eye(2) if columns else big, mode=mode))

    @pytest.mark.parametrize("mode", ["bogus", "frame", None])
    def test_mode_not_a_mode(self, mode):
        with pytest.raises(ModeError, match="mode must be a Mode"):
            validate(Decomposition(L=np.eye(2), V=np.eye(2), mode=mode))


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

    def test_classical_empty_operator_reaches_the_typed_error(self):
        # A 0 x 0 L has no column to fail the unit-norm check: the walk and
        # the certificate stop at the schedule's typed errors.
        dec = from_standard_basis(np.zeros((0, 0)), classical=True)
        assert (dec.mode, dec.n, dec.m) == (Mode.CLASSICAL_COLUMNS, 0, 0)
        with pytest.raises(ZeroOperatorError):
            run_selection(dec, 0.5)
        with pytest.raises(ParameterError, match="m must be a positive integer"):
            verify_classical(np.zeros((0, 0)), 0.5, [])


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

    @pytest.mark.parametrize("bad", [-1, 2.5, True, "2", None])
    @pytest.mark.parametrize("name", ["n", "m", "seed"])
    def test_bad_counts(self, name, bad):
        args = {"n": 2, "m": 3, "seed": 0, name: bad}
        with pytest.raises(ParameterError, match=f"{name} must be a non-negative integer"):
            random_tight_frame(**args)

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

    @pytest.mark.parametrize("V, message", [
        (5.0, r"V rows must live in R\^2, got V shape \(\)"),
        ([[1.0, 0.0], [0.0]], "V must be a rectangular array of real numbers"),
        ([1.0, 0.0], r"V rows must live in R\^2, got V shape \(2,\)"),
    ], ids=["scalar", "ragged", "1-D"])
    def test_rejects_malformed_V(self, V, message):
        # checked_arrays' DimensionError, not numpy's IndexError or ValueError,
        # and a 1-D V is not permuted as if its entries were rows.
        with pytest.raises(DimensionError, match=message):
            permuted(Decomposition(L=np.eye(2), V=V), [0, 1])

    def test_rejects_float_perm(self):
        # Not cast to int: [0.2, 1, 2] is not the identity.
        dec = Decomposition(L=np.eye(2), V=frame_120())
        with pytest.raises(IndexRangeError, match="perm must be a sequence of integer indices"):
            permuted(dec, [0.2, 1, 2])


class TestCheckedIndices:
    """Repeats are found by sorting; a set is the reference."""

    DEC = Decomposition(L=np.eye(3), V=random_tight_frame(3, 9, 0))

    @classmethod
    def _entry_points(cls, indices):
        """Each entry point that checks an index list, with the name its messages use."""
        return (("indices", lambda: checked_indices(indices, 9, "indices")),
                ("perm", lambda: permuted(cls.DEC, indices)),
                ("sigma", lambda: verify(cls.DEC, 0.5, indices)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 8), max_size=12))
    @example([])
    @example([4])
    @example([8, 8])
    def test_repeat_verdict_matches_set(self, indices):
        repeated = len(set(indices)) != len(indices)
        for name, call in self._entry_points(indices):
            try:
                call()
            except IndexRangeError as exc:
                assert repeated and str(exc) == f"{name} contains repeated indices"
            except RinvError:
                assert not repeated  # a later check of the entry point
            else:
                assert not repeated
        if not repeated:
            np.testing.assert_array_equal(checked_indices(indices, 9, "indices"), indices)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 8), max_size=8), st.sampled_from([-1, 9, 40]), st.integers(0, 8))
    @example([3, 3], 9, 1)
    def test_range_error_comes_before_repeats(self, indices, bad, at):
        # One entry outside [0, 9), placed anywhere, possibly among repeats.
        indices = indices[:at] + [bad] + indices[at:]
        for name, call in self._entry_points(indices):
            with pytest.raises(IndexRangeError) as info:
                call()
            assert str(info.value) == f"{name} indices must lie in [0, 9)"


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
        result = run_selection(nested, 0.5, pivot_rule=pivot)
        assert result.sigma == run_selection(dec, 0.5, pivot_rule=pivot).sigma
        assert len(result.sigma) == result.schedule.steps_t > 1
        assert (compare_to_guarantee(nested, 0.5, pivot_rule=pivot)
                == compare_to_guarantee(dec, 0.5, pivot_rule=pivot))
        perm = np.random.default_rng(3).permutation(48)
        np.testing.assert_array_equal(permuted(nested, perm).V, dec.V[perm])
