import pytest
import scipy.optimize

import octainscribe.polytope


@pytest.fixture
def no_lp(monkeypatch):
    """Fail the test if anything calls linprog: scipy.optimize.linprog looked
    up at call time, or the name that polytope binds at import."""

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog was called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    monkeypatch.setattr(octainscribe.polytope, "linprog", refuse)
