"""The step's spectrum, potentials and resolvent, bit for bit against the
formulas they were first written with, and the post-step interlacing check
on the explicit eigenvalues against the check on spectra padded to length n.

The reference below keeps the original forms: the kernel band masked by
P[:, keep] on every step (a mask that keeps every column, as a Gram with an
eigenvalue in the band now raises), the shift gap scaled by max |poles| over the whole
array, d0 summed from the tail of 1 / (poles - shift), and mass0 through
np.trace. The walk must reproduce its floats exactly, not within a tolerance:
sigma, the certificates and the traces are pinned to them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rinv import Decomposition, compute_schedule, default_tolerances, run_selection
from rinv.errors import InvariantViolation, SingularShiftError
from rinv.matrix_core import check_interlacing
from rinv.selector import SelectionState, Spectrum
from test_fast_path import LOW_RANK_CASES, _ramp_instance

TOL = default_tolerances()


def reference_spectrum(Gss, Hss, tr_ltl, n):
    """(lam, R, M, n0, mass0, poles) from the k x k Grams G[sigma, sigma] and
    H[sigma, sigma]."""
    lam, P = np.linalg.eigh(Gss)
    lam, P = lam[::-1], P[:, ::-1]
    keep = ~(lam <= TOL.kernel_threshold * float(np.abs(lam).max(initial=0.0)))
    lam = lam[keep]
    R = P[:, keep] / np.sqrt(lam)
    M = R.T @ Hss @ R
    n0 = n - len(lam)
    mass0 = tr_ltl - float(np.trace(M)) if n0 else 0.0
    return lam, R, M, n0, mass0, np.append(lam, np.zeros(min(n0, 1)))


def reference_at(ref, shift):
    """(d, d0, phi, K) at shift."""
    lam, R, M, n0, mass0, poles = ref
    k = len(lam)
    scale = max(abs(shift), float(np.abs(poles).max(initial=0.0)))
    if float(np.abs(poles - shift).min()) <= TOL.shift_gap * scale:
        raise SingularShiftError(f"shift {shift} on an eigenvalue")
    d = 1.0 / (poles - shift)
    d, d0 = d[:k], float(np.sum(d[k:]))
    phi = float(np.sum(np.diag(M) * d)) + mass0 * d0
    return d, d0, phi, (R * (d - d0)) @ R.T


def _grams_of(grams):
    """The arguments of reference_spectrum, copied from grams as they stand."""
    k = len(grams.cols)
    return grams.Gss[:k, :k].copy(), grams.Hss[:k, :k].copy(), grams.tr_ltl, len(grams.LtL)


def _assert_same_bits(spec, grams_args, shifts):
    ref = reference_spectrum(*grams_args)
    lam, R, M, n0, mass0, poles = ref
    for got, want in [(spec.lam, lam), (spec.R, R), (spec.M, M), (spec.poles, poles)]:
        assert got.shape == want.shape and np.array_equal(got, want)
    assert (spec.n0, spec.mass0) == (n0, mass0)
    for shift in shifts:
        d, d0, phi, K = reference_at(ref, shift)
        at = spec.at(shift)
        assert np.array_equal(at.d, d) and (at.d0, at.phi) == (d0, phi)
        assert np.array_equal(spec.resolvent(shift), K)


def _recorded_spectra(dec, eps, pivot, monkeypatch):
    """run_selection, with every Spectrum it built and a copy of the Grams
    it was built from, taken at the time."""
    spectra, of = [], Spectrum.of.__func__

    def recording(cls, grams, tol):
        spec = of(cls, grams, tol)
        spectra.append((spec, list(grams.cols), _grams_of(grams)))
        return spec

    monkeypatch.setattr(Spectrum, "of", classmethod(recording))
    return run_selection(dec, eps, pivot_rule=pivot), spectra


WALKS = {
    "walk-256x512": lambda: _ramp_instance(256, 512, 11),
    **LOW_RANK_CASES,
}


@pytest.mark.parametrize("case, pivot", [("walk-256x512", "first")] + [
    (case, pivot) for case in LOW_RANK_CASES for pivot in ("first", "greedy")])
def test_walk_spectra_match_reference_bits(case, pivot, monkeypatch):
    # Spectrum k is read at b_k and b_k - delta, and after the step that
    # built it at its own barrier b_k (the post-step check).
    result, spectra = _recorded_spectra(WALKS[case](), 0.5, pivot, monkeypatch)
    t = result.schedule.steps_t
    assert len(spectra) == t + 1 and t > 1
    barriers = [tr.barrier_before for tr in result.traces] + [result.traces[-1].barrier_after]
    for k, (spec, cols, grams_args) in enumerate(spectra):
        assert cols == result.sigma[:k]
        shifts = [barriers[k]] + ([barriers[k + 1]] if k < t else [])
        _assert_same_bits(spec, grams_args, shifts)


@pytest.mark.parametrize("case", LOW_RANK_CASES)
def test_kernel_band_state_raises(case):
    # A LOW_RANK_CASES walk's first two indices and a copy of the first,
    # appended as a last row of V: the Gram of the three chosen rows is
    # singular, so A would have rank 2 after 3 steps.
    dec = LOW_RANK_CASES[case]()
    sigma = run_selection(dec, 0.5).sigma[:2]
    dec = Decomposition(L=dec.L, V=np.vstack([dec.V, dec.V[sigma[0]]]))
    sched = compute_schedule(dec.L, dec.m, 0.5)
    with pytest.raises(InvariantViolation, match="the Gram of the 3 chosen vectors has eigenvalue"):
        SelectionState.of(dec, sigma + [dec.m - 1], sched.b0 - 3 * sched.delta)


def test_empty_state_matches_reference_bits():
    dec = _ramp_instance(64, 128, 3)
    sched = compute_schedule(dec.L, dec.m, 0.5)
    state = SelectionState.of(dec, [], sched.b0)
    assert len(state.spectrum.lam) == 0 and state.spectrum.n0 == dec.n
    _assert_same_bits(state.spectrum, _grams_of(state.grams), [sched.b0, sched.b0 - sched.delta])


def _raises(check, *args):
    """The InvariantViolation message check raises, or None."""
    try:
        check(*args)
    except InvariantViolation as err:
        return str(err)
    return None


def _padded(lam, n):
    return np.concatenate([lam, np.zeros(n - len(lam))])


@st.composite
def _spectrum_pairs(draw):
    """n, the p explicit eigenvalues (descending, positive) of A and the
    p + 1 of A + w w^T, p < n, and a slack. Half the pairs interlace by
    construction."""
    n = draw(st.integers(1, 10))
    p = draw(st.integers(0, n - 1))
    values = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])
    before = sorted(draw(st.lists(values, min_size=p, max_size=p)), reverse=True)
    if draw(st.booleans()):
        after = sorted(draw(st.lists(values, min_size=p + 1, max_size=p + 1)), reverse=True)
    else:
        # l'_i in [l_i, l_{i-1}], l'_1 >= l_1, and one more below l_p.
        tops = [before[0] + 1.0 if before else 1.0] + before
        after = [draw(st.sampled_from([lo, (lo + hi) / 2, hi]))
                 for lo, hi in zip(before + [0.125], tops)]
    slack = draw(st.sampled_from([0.0, 1e-3, 0.2]))
    return n, np.array(before), np.array(after), slack


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_spectrum_pairs())
@example((6, np.array([3.0, 2.0, 1.0]), np.array([3.0, 2.5, 1.5, 0.75]), 0.0))  # interlaced
@example((6, np.array([3.0, 2.0, 1.0]), np.array([3.0, 2.0, 2.0, 0.5]), 0.0))  # l'_3 > l_2
@example((3, np.array([2.0, 1.0]), np.array([3.0, 1.5, 0.75]), 0.0))  # p + 1 = n
def test_head_interlacing_matches_padded_check(pair):
    # check_interlacing on the post-step check's p + 1 entries, A's poles
    # (its p eigenvalues and a 0) and the p + 1 eigenvalues of A + w w^T,
    # raises exactly when the check on the spectra padded to length n does,
    # with the same message, in either order; a pair that interlaces with a
    # gap above the slack fails in the swapped order.
    n, before, after, slack = pair
    poles = np.append(before, 0.0)
    for a, b in [(poles, after), (after, poles)]:
        padded = _raises(check_interlacing, _padded(a, n), _padded(b, n), slack)
        assert _raises(check_interlacing, a, b, slack) == padded
    scale = slack * np.abs(np.concatenate([before, after])).max(initial=0.0)
    gap = (_padded(after, n) - _padded(before, n)).max()
    if _raises(check_interlacing, poles, after, slack) is None and gap > scale:
        assert _raises(check_interlacing, after, poles, slack) is not None
