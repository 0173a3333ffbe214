"""The top-level rinv namespace is the library API and nothing more, and
the contracts other code holds it to: no tolerance argument, and the step
functions the benchmark tracer wraps."""

import inspect

import numpy as np
import pytest

import rinv
import rinv.certificate
import rinv.selector

PUBLIC = [
    "Certificate",
    "Decomposition",
    "Mode",
    "SelectionResult",
    "Tolerances",
    "compare_to_guarantee",
    "compute_schedule",
    "default_tolerances",
    "exhaustive_best_subset",
    "from_standard_basis",
    "permuted",
    "random_tight_frame",
    "run_selection",
    "validate",
    "verify",
    "verify_classical",
]


def test_all_is_the_public_list():
    assert sorted(rinv.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in rinv.__all__:
        assert getattr(rinv, name) is not None


def _functions():
    """Each function, and each method of a class, bound to a name in
    rinv.__all__, rinv.selector or rinv.certificate."""
    objects = [getattr(rinv, name) for name in rinv.__all__]
    objects += [*vars(rinv.selector).values(), *vars(rinv.certificate).values()]
    for obj in objects:
        for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
            member = getattr(member, "__func__", member)  # classmethod, staticmethod
            if inspect.isfunction(member):
                yield member


def test_no_function_takes_an_optional_tol():
    # RI_TOLERANCE_SCALE is the only way to set a slack. Internals that pass
    # the walk's slacks on take them as a required argument.
    functions = list(_functions())
    names = {f.__qualname__ for f in functions}
    assert {"run_selection", "Grams.of", "Spectrum.of", "shifted_spectrum",
            "gram_min_eigenvalue", "exhaustive_best_subset", "validate", "verify"} <= names
    optional = [
        f.__qualname__ for f in functions
        if "tol" in (params := inspect.signature(f).parameters)
        and params["tol"].default is not inspect.Parameter.empty
    ]
    assert optional == []


@pytest.mark.parametrize("pivot", ["first", "greedy"])
def test_each_step_calls_the_traced_functions_once(monkeypatch, pivot):
    # perfbench/tracing.py counts steps and times layers by wrapping these
    # names on rinv.selector, so the walk must call them through the module.
    traced, calls = ("check_step_preconditions", "select_next", "check_interlacing"), {}
    for name in traced:
        def counting(*args, _name=name, _f=getattr(rinv.selector, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(rinv.selector, name, counting)
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((24, 24)))
    dec = rinv.Decomposition(L=Q * np.linspace(1.0, 2.0, 24), V=rinv.random_tight_frame(24, 48, 0))
    t = rinv.run_selection(dec, 0.5, pivot_rule=pivot).schedule.steps_t
    assert t >= 2
    assert calls == dict.fromkeys(traced, t)
