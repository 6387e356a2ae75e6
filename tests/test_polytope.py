import math

import numpy as np
import pytest

from octainscribe.generators import random_simple_polytope
from octainscribe.polytope import (
    ConvexPolytope,
    Degenerate,
    SmoothedBody,
    build,
    build_from_halfspaces,
    build_from_vertices,
    cube,
    distance_to_boundary,
    is_simple,
    regular_octahedron,
    regular_tetrahedron,
    signed_distance_smoothed,
    solid_angle_at,
)

AXES = np.vstack([np.eye(3), -np.eye(3)])


# -- construction ------------------------------------------------------------


def test_cube_build():
    c = cube()
    assert len(c.vertices) == 8
    assert len(c.normals) == 6
    assert len(c.edges) == 12
    assert all(len(fs) == 3 for fs in c.vertex_facets)
    assert c.inradius == pytest.approx(1.0, abs=1e-9)
    assert c.diameter == pytest.approx(2 * math.sqrt(3), abs=1e-12)


def test_tetrahedron_build():
    t = regular_tetrahedron()
    assert len(t.vertices) == 4
    assert len(t.normals) == 4
    assert len(t.edges) == 6


def test_build_from_halfspaces_matches_vertices():
    c1 = cube()
    c2 = build_from_halfspaces(AXES, np.ones(6))
    assert np.allclose(c1.vertices, c2.vertices, atol=1e-12)
    assert np.allclose(c1.normals, c2.normals, atol=1e-12)


def test_build_prunes_redundant_halfspaces():
    normals = np.vstack([AXES, [[1, 1, 1] / np.sqrt(3)]])
    offsets = np.concatenate([np.ones(6), [5.0]])  # last one never tight
    c = build_from_halfspaces(normals, offsets)
    assert len(c.normals) == 6


def test_build_drops_interior_points():
    pts = np.vstack([regular_tetrahedron().vertices, [[0.1, 0.05, 0.02]]])
    t = build_from_vertices(pts)
    assert len(t.vertices) == 4


def test_build_dispatcher():
    c = build(halfspaces=[(n, 1.0) for n in AXES])
    assert len(c.vertices) == 8
    with pytest.raises(ValueError):
        build()


def test_build_rejects_degenerate():
    with pytest.raises(Degenerate):
        build_from_vertices(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]))  # flat
    with pytest.raises(Degenerate):
        build_from_halfspaces(np.eye(3), np.ones(3))  # unbounded (and too few)
    with pytest.raises(Degenerate):
        build_from_halfspaces(
            np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]), np.ones(4)
        )  # slab, unbounded in z


def test_deterministic_output():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 3))
    a = build_from_vertices(pts)
    b = build_from_vertices(pts)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.normals, b.normals)
    assert a.facet_vertices == b.facet_vertices


# -- simplicity and solid angles ----------------------------------------------


def test_is_simple():
    assert is_simple(cube()) == (True, [])
    assert is_simple(regular_tetrahedron()) == (True, [])
    simple, offending = is_simple(regular_octahedron())
    assert not simple
    assert offending == [0, 1, 2, 3, 4, 5]


def test_square_pyramid_apex_flagged():
    pts = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1.5]], float)
    p = build_from_vertices(pts)
    simple, offending = is_simple(p)
    assert not simple
    apex = int(np.argmax(p.vertices[:, 2]))
    assert offending == [apex]


def test_solid_angle_at_cube_vertex():
    c = cube()
    ang = solid_angle_at(c, 0)
    assert ang.n_edges == 3
    dots = ang.edges @ ang.edges.T
    assert np.allclose(dots - np.eye(3), 0, atol=1e-12)


def test_solid_angle_at_pyramid_apex_has_4_edges():
    pts = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1.5]], float)
    p = build_from_vertices(pts)
    apex = int(np.argmax(p.vertices[:, 2]))
    assert solid_angle_at(p, apex).n_edges == 4


# -- smoothing ----------------------------------------------------------------


def test_smoothed_body_examples():
    s = SmoothedBody(cube(), 0.1)
    r, g = signed_distance_smoothed(s, [0, 0, 0])
    assert r == pytest.approx(-0.1, abs=1e-15)
    assert np.allclose(g, 0)

    r, g = signed_distance_smoothed(s, [1, 0, 0])
    assert r == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(g, [1, 0, 0], atol=1e-12)

    # corner point: projection onto the inner cube corner
    r, g = signed_distance_smoothed(s, [1, 1, 1])
    assert r == pytest.approx(0.1 * math.sqrt(3) - 0.1, abs=1e-12)
    assert np.allclose(g, np.ones(3) / math.sqrt(3), atol=1e-12)


def test_smoothed_epsilon_bounds():
    with pytest.raises(Degenerate):
        SmoothedBody(cube(), 1.0)
    with pytest.raises(Degenerate):
        SmoothedBody(cube(), 0.0)


def test_smoothed_membership_against_oracle():
    from octainscribe.oracle import membership_oracle_batch

    rng = np.random.default_rng(6)
    for body, eps in [(cube(), 0.1), (regular_tetrahedron(), 0.2)]:
        s = SmoothedBody(body, eps)
        X = rng.uniform(-1.5, 1.5, size=(20_000, 3)) * body.diameter / 2
        r, _ = s.signed_distance(X)
        oracle = membership_oracle_batch(body, eps, X)
        band = np.abs(r) > 1e-9
        assert np.array_equal(r[band] <= 0, oracle[band])


def test_smoothed_subset_of_base():
    rng = np.random.default_rng(7)
    body = regular_tetrahedron()
    s = SmoothedBody(body, 0.15)
    # points on the smoothed boundary: project random directions
    X = rng.normal(size=(10_000, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X = X * body.diameter
    _, proj = s.inner_body.distance_and_projection(X)
    boundary = proj + 0.15 * (X - proj) / np.linalg.norm(X - proj, axis=1, keepdims=True)
    slack = boundary @ body.normals.T - body.offsets[None, :]
    assert slack.max() <= 1e-9
    # and the inner body is inside the smoothed body
    r_inner, _ = s.signed_distance(s.inner_body.vertices)
    assert r_inner.max() <= -0.15 + 1e-12


def test_smoothing_monotone_in_epsilon():
    rng = np.random.default_rng(8)
    body = cube()
    s1, s2 = SmoothedBody(body, 0.1), SmoothedBody(body, 0.25)
    X = rng.uniform(-2, 2, size=(5000, 3))
    r1, _ = s1.signed_distance(X)
    r2, _ = s2.signed_distance(X)
    assert np.all(r2 >= r1 - (0.25 - 0.1) - 1e-12)
    assert np.all(r1[r2 <= 0] <= 1e-12)  # P_eps2 inside P_eps1


def test_smoothed_gradient_finite_difference():
    rng = np.random.default_rng(9)
    for body in (cube(), regular_tetrahedron()):
        s = SmoothedBody(body, 0.12)
        h = 1e-6 * body.diameter
        checked = 0
        while checked < 250:
            x = rng.uniform(-1.2, 1.2, 3) * body.diameter / 2
            r, g = signed_distance_smoothed(s, x)
            if r < -s.epsilon + 10 * h:  # skip the kink at the inner body
                continue
            fd = np.zeros(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[k] = (
                    signed_distance_smoothed(s, x + e)[0]
                    - signed_distance_smoothed(s, x - e)[0]
                ) / (2 * h)
            assert np.abs(fd - g).max() <= 1e-5
            checked += 1


# -- distance_to_boundary ------------------------------------------------------


def test_distance_to_boundary_cases():
    c = cube()
    d, feat = distance_to_boundary(c, [0, 0, 0])
    assert d == pytest.approx(1.0, abs=1e-15)
    assert feat.kind == "facet" and feat.index == 0

    d, feat = distance_to_boundary(c, [1, 0, 0])
    assert d == pytest.approx(0.0, abs=1e-12)
    assert feat.kind == "facet"

    d, feat = distance_to_boundary(c, [2, 2, 2])
    assert d == pytest.approx(math.sqrt(3), abs=1e-12)
    assert feat.kind == "vertex"
    assert np.allclose(c.vertices[feat.index], [1, 1, 1])


def test_distance_to_boundary_edge_feature():
    c = cube()
    d, feat = distance_to_boundary(c, [2, 2, 0])
    assert d == pytest.approx(math.sqrt(2), abs=1e-12)
    assert feat.kind == "edge"


def _reference_nearest_feature(p, x):
    """The per-feature loop that nearest_boundary replaced: facets, edges
    and vertices considered in turn, a later candidate winning only when
    nearer by more than 1e-12 * diameter; the feature is then re-derived
    from the projection.  Returns (dist, proj, kind, index)."""
    tol = 1e-12 * p.diameter
    best = (np.inf, None, None, None)

    def consider(dist, proj, kind, idx):
        nonlocal best
        if dist < best[0] - tol:
            best = (dist, proj, kind, idx)

    for fi, cyc in enumerate(p.facet_vertices):
        n = p.normals[fi]
        t = x @ n - p.offsets[fi]
        foot = x - t * n
        pts = p.vertices[list(cyc)]
        inward = np.cross(n, np.roll(pts, -1, axis=0) - pts)
        inward /= np.linalg.norm(inward, axis=1, keepdims=True)
        if all((foot - a) @ m >= -tol for a, m in zip(pts, inward)):
            consider(abs(t), foot, "facet", fi)
    for ei, (i, j) in enumerate(p.edges):
        a, b = p.vertices[i], p.vertices[j]
        u = (b - a) / np.linalg.norm(b - a)
        proj = a + np.clip((x - a) @ u, 0.0, np.linalg.norm(b - a)) * u
        consider(np.linalg.norm(x - proj), proj, "edge", ei)
    for vi, v in enumerate(p.vertices):
        consider(np.linalg.norm(x - v), v, "vertex", vi)

    d, y, kind, idx = best
    for vi, v in enumerate(p.vertices):
        if np.linalg.norm(y - v) <= tol:
            return d, y, "vertex", vi
    for ei, (i, j) in enumerate(p.edges):
        a, t = p.vertices[i], p.vertices[j] - p.vertices[i]
        s = (y - a) @ t / (t @ t)
        if -1e-12 <= s <= 1 + 1e-12 and np.linalg.norm(a + s * t - y) <= tol:
            return d, y, "edge", ei
    return d, y, kind, idx


def test_nearest_boundary_matches_per_feature_reference():
    rng = np.random.default_rng(41)
    normals = rng.normal(size=(64, 3))
    bodies = [cube(), regular_tetrahedron()]
    bodies += [random_simple_polytope(rng) for _ in range(3)]
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    bodies.append(build_from_halfspaces(normals, np.ones(64)))
    assert len(bodies[-1].normals) == 64
    kinds = ("facet", "edge", "vertex")
    for p in bodies:
        V = p.vertices
        mids = np.array([(V[i] + V[j]) / 2 for i, j in p.edges])
        centroids = np.array([V[list(cyc)].mean(axis=0) for cyc in p.facet_vertices])
        inner = rng.dirichlet(np.ones(len(V)), size=30) @ V
        dirs = rng.normal(size=(30, 3))
        outer = p.center + dirs / np.linalg.norm(dirs, axis=1)[:, None] * p.diameter
        X = np.vstack([inner, outer, V, mids, centroids, p.center])
        assert p.contains(inner).all() and not p.contains(outer).any()
        dist, proj, kind, index = p.nearest_boundary(X)
        tol = 1e-12 * p.diameter
        for k, x in enumerate(X):
            d_ref, y_ref, kind_ref, idx_ref = _reference_nearest_feature(p, x)
            assert abs(dist[k] - d_ref) <= tol
            assert np.linalg.norm(proj[k] - y_ref) <= tol
            assert (kinds[kind[k]], index[k]) == (kind_ref, idx_ref)
            _, feat = distance_to_boundary(p, x)
            assert (feat.kind, feat.index) == (kind_ref, idx_ref)


def test_nearest_boundary_names_the_chosen_edge_far_from_origin():
    # A million diameters out, rounding exceeds the 1e-12 * diameter band,
    # so proj on an edge can miss that edge's band; the chosen edge is named.
    base = regular_tetrahedron()
    p = build_from_vertices(base.vertices + 1e6 * base.diameter * np.array([0.6, -0.8, 0.3]))
    dirs = np.random.default_rng(3).normal(size=(200, 3))
    X = p.center + dirs / np.linalg.norm(dirs, axis=1)[:, None] * p.diameter
    dist, proj, kind, index = p.nearest_boundary(X)
    off_band = np.linalg.norm(proj[:, None] - p._edge_feet(proj), axis=2).min(axis=1)
    assert np.any((kind == 1) & (off_band > 1e-12 * p.diameter))
    for k, x in enumerate(X):
        d_ref, y_ref, kind_ref, idx_ref = _reference_nearest_feature(p, x)
        assert abs(dist[k] - d_ref) <= 1e-9 * p.diameter
        assert np.linalg.norm(proj[k] - y_ref) <= 1e-9 * p.diameter
        assert (("facet", "edge", "vertex")[kind[k]], index[k]) == (kind_ref, idx_ref)


def test_random_polytopes_validate():
    rng = np.random.default_rng(20)
    for _ in range(5):
        p = random_simple_polytope(rng)
        assert is_simple(p)[0]
        slack = p.vertices @ p.normals.T - p.offsets[None, :]
        assert slack.max() <= 1e-9 * p.diameter
        assert p.inradius > 1e-6 * p.diameter
