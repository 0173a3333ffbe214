import pytest

import rinv.selector


@pytest.fixture()
def empty_schedule_cache(monkeypatch):
    """The schedule's one entry of ||L||_2^2 emptied for one test, so what a
    test counts does not depend on what an earlier test scheduled."""
    monkeypatch.setattr(rinv.selector, "_last_spec_sq", None)
