import itertools

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


def _spiky_clouds():
    """The spiky family, drawn in turn from default_rng(5): flattened point
    clouds on the unit sphere with 1-3 far spikes."""
    rng = np.random.default_rng(5)
    while True:
        pts = rng.normal(size=(rng.integers(5, 12), 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        k = rng.integers(1, 4)
        spikes = rng.normal(size=(k, 3))
        spikes /= np.linalg.norm(spikes, axis=1, keepdims=True)
        spikes *= rng.uniform(2, 12, size=(k, 1))
        flat = np.diag([1.0, 1.0, rng.uniform(0.1, 1)])
        yield np.vstack([pts @ flat, spikes])


@pytest.fixture
def spiky_cloud():
    """Call with i: the point cloud of draw i of the spiky family."""
    return lambda i: next(itertools.islice(_spiky_clouds(), i, None))


@pytest.fixture
def spiky_body(spiky_cloud):
    """The fourth draw of the spiky family: a non-simple body of 7 vertices
    and 10 facets.  Its inner parallel bodies split the non-simple vertices
    into clusters whose vertices lie as little as 5e-8 diameters apart at
    the last rung of the continuation ladder; every rung still builds."""
    body = octainscribe.polytope.build_from_vertices(spiky_cloud(3))
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
