"""Results depend only on the values of L and V, and scale exactly.

The instances are the benchmark's, built by perfbench/instances.py from the
specs stored in perfbench/references.json (both read, never written). A
Fortran-ordered copy of L and V must give the same sigma, trace lines and
certificate JSON, byte for byte. Under L -> 2^e L the walk is exactly
equivariant: sigma and every dimensionless value stay, and the barriers, the
kernel mass, lambda_min, the bound, b0 and delta scale by 2^(2e) bit for bit.
Columns mode is left out of the scaling, which breaks its unit columns.
"""

import json

import numpy as np
import pytest

import rinv
import rinv.selector
from test_references import REFERENCES, instances

PIVOTS = ("first", "greedy")
SCALED_TRACE_KEYS = {"barrier_before", "barrier_after", "kernel_frob_sq"}
SCALED_CERT_KEYS = {"lambda_min", "bound", "b0", "delta"}


def _instances(workload, count):
    """The first count instances of workload at seed 0, and its epsilon."""
    spec = instances.Spec(**json.loads(REFERENCES[workload]["spec"]))
    return [instances.make_instance(spec, 0, i) for i in range(count)], spec.epsilon


def _outputs(dec, epsilon, pivot):
    """(sigma, trace dicts, certificate dict) of run_selection and verify."""
    result = rinv.run_selection(dec, epsilon, pivot_rule=pivot)
    cert = rinv.verify(dec, epsilon, result.sigma)
    return result.sigma, [tr.to_dict() for tr in result.traces], cert.to_json_dict()


@pytest.mark.parametrize("pivot", PIVOTS)
def test_fortran_order_gives_the_same_bytes(pivot, monkeypatch):
    # The walk's and the certificate's sums follow the memory order of what
    # they are given, so every entry point reads L and V in C order. Each
    # run starts with an empty schedule cache, so the Fortran copy's
    # ||L||_2^2 is its own.
    cases = [_instances("walk", 1), _instances("scan", 2), _instances("desk", 4)]
    for decs, epsilon in cases:
        for dec in decs:
            fortran = dec._replace(L=np.asfortranarray(dec.L), V=np.asfortranarray(dec.V))
            assert not fortran.L.flags.c_contiguous
            got = []
            for d in (dec, fortran):
                monkeypatch.setattr(rinv.selector, "_last_spec_sq", None)
                sigma, traces, cert = _outputs(d, epsilon, pivot)
                got.append((sigma, [json.dumps(tr) for tr in traces], json.dumps(cert)))
            assert got[0] == got[1]


def _exact(value, base, factor):
    """value == base * factor, exactly, for floats and nested flag dicts."""
    if isinstance(base, float):
        return value == base * factor
    return value == base


@pytest.mark.parametrize("pivot", PIVOTS)
def test_power_of_two_scaling_is_exact(pivot):
    # L -> 2^e L scales ||L||_F^2, ||L||_2^2 and every eigenvalue of A by
    # 4^e, and the walk's potentials, margins and stable rank not at all.
    # Scaling by a power of two rounds nothing, so each relation holds bit
    # for bit.
    cases = [_instances("walk", 1), _instances("scan", 3), _instances("desk", 8)]
    steps = 0
    for decs, epsilon in cases:
        for dec in decs:
            if dec.mode != rinv.Mode.FRAME:
                continue
            sigma, traces, cert = _outputs(dec, epsilon, pivot)
            steps += len(traces)
            for e in (-7, 1, 5):
                factor = 4.0 ** e
                got = _outputs(dec._replace(L=np.ldexp(dec.L, e)), epsilon, pivot)
                assert got[0] == sigma
                for tr, base in zip(got[1], traces, strict=True):
                    for key in base:
                        scale = factor if key in SCALED_TRACE_KEYS else 1.0
                        assert _exact(tr[key], base[key], scale), (e, key)
                for key in cert:
                    scale = factor if key in SCALED_CERT_KEYS else 1.0
                    assert _exact(got[2][key], cert[key], scale), (e, key)
    assert steps > 0
