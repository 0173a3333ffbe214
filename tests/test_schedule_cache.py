"""The schedule's one entry of ||L||_2^2: a hit only for the bits of the last
L scheduled, and no certificate or selection that depends on what it holds.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rinv.selector
from rinv import Decomposition, compute_schedule, random_tight_frame, run_selection, verify
from test_acceptance import EPS_GRID, build_grid


@pytest.fixture()
def eigvalsh_orders(monkeypatch, empty_schedule_cache):
    """The order of every np.linalg.eigvalsh call, from an empty entry."""
    orders = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return orders


def _cert_json(dec, epsilon, sigma):
    return json.dumps(verify(dec, epsilon, sigma).to_json_dict())


def _ramp(n, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.linspace(1.0, 2.0, n)


def test_certificates_identical_on_the_acceptance_grid(monkeypatch):
    grid, hits = build_grid(), 0
    for label, dec in grid:
        for eps in EPS_GRID:
            sigma = run_selection(dec, eps).sigma
            key, _ = rinv.selector._last_spec_sq
            hits += np.array_equal(key, dec.L)
            warm = _cert_json(dec, eps, sigma)
            monkeypatch.setattr(rinv.selector, "_last_spec_sq", None)
            assert _cert_json(dec, eps, sigma) == warm, (label, eps)
    assert hits == len(grid) * len(EPS_GRID)


@pytest.mark.parametrize("pivot", ["first", "greedy"])
def test_L_changed_in_place_after_the_run(pivot, monkeypatch):
    dec = Decomposition(L=_ramp(24, 3), V=random_tight_frame(24, 48, 3))
    sigma = run_selection(dec, 0.5, pivot_rule=pivot).sigma
    before = _cert_json(dec, 0.5, sigma)
    dec.L[0] *= 3.0
    after = _cert_json(dec, 0.5, sigma)
    monkeypatch.setattr(rinv.selector, "_last_spec_sq", None)
    assert _cert_json(dec, 0.5, sigma) == after != before


def test_sign_of_a_zero_is_a_miss(eigvalsh_orders):
    L = np.diag(np.linspace(1.0, 2.0, 6))
    signed = L.copy()
    signed[0, 1] = -0.0
    assert np.array_equal(L, signed)  # equal as floats, not as bits
    compute_schedule(L, 12, 0.5)
    compute_schedule(signed, 12, 0.5)
    assert eigvalsh_orders == [6, 6]
    compute_schedule(signed, 12, 0.5)
    assert eigvalsh_orders == [6, 6]


def test_memory_layout_is_not_part_of_the_key(eigvalsh_orders):
    L = _ramp(8, 1)
    compute_schedule(L.T, 16, 0.5)  # an F-ordered view
    compute_schedule(np.ascontiguousarray(L.T), 16, 0.5)
    assert eigvalsh_orders == [8]


def test_one_entry(eigvalsh_orders):
    A, B = _ramp(8, 1), _ramp(8, 2)
    scheds = [compute_schedule(L, 16, 0.5) for L in (A, B, A)]
    assert eigvalsh_orders == [8, 8, 8]
    assert scheds[0] == scheds[2] != scheds[1]


def test_caller_writes_do_not_reach_the_entry(eigvalsh_orders):
    L = _ramp(8, 1)
    kept = L.copy()
    spec_sq = compute_schedule(L, 16, 0.5).spec_sq
    key, cached = rinv.selector._last_spec_sq
    assert not key.flags.writeable and key.flags.c_contiguous
    assert not np.shares_memory(key, L)
    L *= 2.0
    assert np.array_equal(key, kept) and cached == spec_sq
    assert compute_schedule(L, 16, 0.5).spec_sq == pytest.approx(4.0 * spec_sq, rel=1e-12)
    assert eigvalsh_orders == [8, 8]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 7), extra=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
       epsilon=st.sampled_from([0.3, 0.5, 0.7, 0.9]))
def test_verify_does_not_depend_on_the_entry(n, extra, seed, epsilon):
    rng = np.random.default_rng(seed)
    dec = Decomposition(L=rng.standard_normal((n, n)),
                        V=random_tight_frame(n, n + extra, seed))
    sigma = run_selection(dec, epsilon).sigma
    other = rng.standard_normal((n, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rinv.selector, "_last_spec_sq", None)
        empty = _cert_json(dec, epsilon, sigma)
        holding_L = _cert_json(dec, epsilon, sigma)
        compute_schedule(other, dec.m, epsilon)
        holding_other = _cert_json(dec, epsilon, sigma)
    assert empty == holding_L == holding_other
