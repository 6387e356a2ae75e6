import pytest
import scipy.optimize


@pytest.fixture
def no_lp(monkeypatch):
    """Fail the test if anything looks up and calls scipy.optimize.linprog."""

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog was called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
