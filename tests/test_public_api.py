"""The top-level rinv namespace is the library API and nothing more."""

import rinv

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
