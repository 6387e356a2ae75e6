import numpy as np
import pytest
import scipy.optimize

import octainscribe.inscriber
import octainscribe.polytope


@pytest.fixture
def no_lp(monkeypatch):
    """Fail the test if anything calls linprog: scipy.optimize.linprog looked
    up at call time, or the name that polytope binds at import."""

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog was called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    monkeypatch.setattr(octainscribe.polytope, "linprog", refuse)


@pytest.fixture
def spiky_body():
    """The fourth draw of a family of flattened point clouds with 1-3 far
    spikes: a non-simple body of 7 vertices and 10 facets.  Its inner
    parallel bodies split the non-simple vertices into clusters whose
    vertices lie as little as 5e-8 diameters apart at the last rung of the
    continuation ladder; every rung still builds."""
    rng = np.random.default_rng(5)
    for _ in range(4):
        pts = rng.normal(size=(rng.integers(5, 12), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        k = rng.integers(1, 4)
        spikes = rng.normal(size=(k, 3))
        spikes /= np.linalg.norm(spikes, axis=1, keepdims=True)
        spikes *= rng.uniform(2, 12, size=(k, 1))
        flat = np.diag([1.0, 1.0, rng.uniform(0.1, 1)])
    body = octainscribe.polytope.build_from_vertices(np.vstack([pts @ flat, spikes]))
    assert (len(body.vertices), len(body.normals)) == (7, 10)
    return body


@pytest.fixture
def inner_bodies_fail_below(monkeypatch):
    """Call with eps_min: from then on, every SmoothedBody the continuation
    builds below eps_min raises Inconsistent, as an inner body that cannot
    be built does."""

    def patch(eps_min):
        class Failing(octainscribe.polytope.SmoothedBody):
            def __init__(self, base, epsilon):
                if epsilon < eps_min:
                    raise octainscribe.polytope.Inconsistent(
                        "every edge of a closed polytope must bound exactly 2 facets"
                    )
                super().__init__(base, epsilon)

        monkeypatch.setattr(octainscribe.inscriber, "SmoothedBody", Failing)

    return patch
