import numpy as np
import pytest
import scipy.optimize

import octainscribe.angles
import octainscribe.inscriber
import octainscribe.polytope
from octainscribe.generators import random_spiky_cloud


@pytest.fixture
def no_lp(monkeypatch):
    """Fail the test if anything calls linprog: scipy.optimize.linprog looked
    up at call time, or the name that polytope binds at import."""

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog was called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    monkeypatch.setattr(octainscribe.polytope, "linprog", refuse)


@pytest.fixture
def spiky_cloud():
    """Call with i: the point cloud of draw i of the spiky family
    (`random_spiky_cloud` from default_rng(5))."""

    def draw(i):
        rng = np.random.default_rng(5)
        for _ in range(i):
            random_spiky_cloud(rng)
        return random_spiky_cloud(rng)

    return draw


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


@pytest.fixture
def indeterminate_path_step(monkeypatch):
    """Call with k: from then on, the k-th call of angles.placement_test
    (counting from 0) classifies INDETERMINATE, with the margin it found."""

    def patch(k):
        real = octainscribe.angles.placement_test
        calls = []

        def spoiled(tri):
            verdict = real(tri)
            calls.append(tri)
            if len(calls) - 1 != k:
                return verdict
            return octainscribe.angles.AngleClass(octainscribe.angles.ClassTag.INDETERMINATE, verdict.margin)

        monkeypatch.setattr(octainscribe.angles, "placement_test", spoiled)

    return patch
