import math
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import octainscribe.polytope as polytope
from octainscribe.angles import InvalidSolidAngle, SolidAngle
from octainscribe.generators import random_simple_polytope, tangent_polytope
from octainscribe.inscriber import certify, continue_to_surface
from octainscribe.polytope import (
    ConvexPolytope,
    Degenerate,
    Inconsistent,
    SmoothedBody,
    build_from_halfspaces,
    build_from_vertices,
    cube,
    distance_to_boundary,
    is_simple,
    regular_octahedron,
    regular_tetrahedron,
    solid_angle_at,
)
from octainscribe.sphere import GeometryError, _as_unit, _cross, _norm3

AXES = np.vstack([np.eye(3), -np.eye(3)])


# -- construction ------------------------------------------------------------


def test_cube_build():
    c = cube()
    assert len(c.vertices) == 8
    assert len(c.normals) == 6
    assert len(c.edge_array) == 12
    assert (np.bincount(c.cycles) == 3).all()
    assert c.inradius == pytest.approx(1.0, abs=1e-9)
    assert c.diameter == pytest.approx(2 * math.sqrt(3), abs=1e-12)


def test_tetrahedron_build():
    t = regular_tetrahedron()
    assert len(t.vertices) == 4
    assert len(t.normals) == 4
    assert len(t.edge_array) == 6


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


def test_build_rejects_degenerate():
    with pytest.raises(Degenerate):
        build_from_vertices(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]))  # flat
    with pytest.raises(Degenerate):
        build_from_halfspaces(np.eye(3), np.ones(3))  # unbounded (and too few)
    with pytest.raises(Degenerate):
        build_from_halfspaces(
            np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]), np.ones(4)
        )  # slab, unbounded in z


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_builders_reject_non_finite_input(bad):
    corners = cube().vertices.copy()
    corners[3, 1] = bad
    normals = AXES.copy()
    normals[2, 0] = bad
    with pytest.raises(Degenerate, match="finite"):
        build_from_vertices(corners)
    with pytest.raises(Degenerate, match="finite"):
        build_from_halfspaces(normals, np.ones(6))
    with pytest.raises(Degenerate, match="finite"):
        build_from_halfspaces(AXES, np.r_[np.ones(5), bad])


def test_builders_reject_finite_input_whose_squares_overflow():
    # Finite coordinates near 1e160 square past the largest float.  Both
    # builders name the overflow, and numpy's warning, an error under the
    # suite's filter, does not escape first.
    with pytest.raises(Degenerate, match="overflow"):
        build_from_vertices(cube().vertices * 1e160)
    with pytest.raises(Degenerate, match="overflow"):
        build_from_halfspaces(AXES * 1e160, np.full(6, 1e160))
    # Rows scaled by 1e150 still normalize to the unit cube.
    assert build_from_halfspaces(AXES * 1e150, np.full(6, 1e150)).normals.tolist() == cube().normals.tolist()
    # Finite offsets over normals of length 1e-13 overflow in the quotient.
    with pytest.raises(Degenerate, match="overflow"):
        build_from_halfspaces(AXES * 1e-13, np.full(6, 1e300))
    # Offsets of opposite signs near the largest float: the LP's slacks
    # would overflow.
    with pytest.raises(Degenerate, match="spread overflows"):
        build_from_halfspaces(AXES, np.r_[1e308, 1.0, 1.0, -1e308, 1.0, 1.0])
    # The LP has no infinite bound: cubes of half-side 1e20 and beyond build
    # from either side, with the half-side as inradius.
    for h in (1e20, 1e25, 1e50):
        assert build_from_vertices(cube().vertices * h).inradius == h
        assert build_from_halfspaces(AXES, np.full(6, h)).inradius == h
    # A redundant plane that far off drops out of the LP, and the cube builds.
    for far in (1e21, 1e300):
        body = build_from_halfspaces(np.vstack([AXES, [[1.0, 1.0, 1.0]]]), np.r_[np.ones(6), far])
        assert body.vertices.tolist() == cube().vertices.tolist()


_OCTANTS = np.array([[a, b, c] for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)])
_SIX_AXIS_POINTS = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1], [0, 1, 0], [1, 0, 0]]


@pytest.mark.parametrize(
    "normals, offsets, facets, vertices, non_simple",
    [
        (np.vstack([AXES, AXES[:1]]), np.ones(7), 6, 8, []),
        (np.vstack([AXES, [[1.0, 1.0, 1.0]]]), np.r_[np.ones(6), 3.0], 6, 8, []),
        (np.vstack([AXES, [[1.0, 1.0, 0.0]]]), np.r_[np.ones(6), 2.0], 6, 8, []),
        (_OCTANTS, np.ones(8), 8, 6, _SIX_AXIS_POINTS),
        (
            np.array([[0.0, 0.0, -1.0], [1.5, 0.0, 1.0], [-1.5, 0.0, 1.0], [0.0, 1.5, 1.0], [0.0, -1.5, 1.0]]),
            np.array([0.0, 1.5, 1.5, 1.5, 1.5]),
            5,
            5,
            [[0, 0, 1.5]],
        ),
    ],
    ids=[
        "duplicated-plane",
        "redundant-plane-tight-at-a-vertex",
        "redundant-plane-tight-along-an-edge",
        "octahedron-four-planes-per-vertex",
        "square-pyramid",
    ],
)
def test_halfspace_build_of_degenerate_plane_sets(normals, offsets, facets, vertices, non_simple):
    # A plane repeated, a plane that touches the body without bounding a
    # facet, and four planes through one vertex.
    p = build_from_halfspaces(normals, offsets)
    assert (len(p.normals), len(p.vertices)) == (facets, vertices)
    assert p.vertices[is_simple(p)[1]].tolist() == non_simple
    if len(normals) == 8:
        # The regular octahedron equals its vertex build, whose vertex
        # array differs only in the signs of some zeros, and certifies.
        o = regular_octahedron()
        assert np.array_equal(p.vertices, o.vertices)
        assert p.normals.tobytes() == o.normals.tobytes()
        assert p.cycles.tobytes() == o.cycles.tobytes()
        _, final = continue_to_surface(p)
        assert certify(p, final.pose, 1e-7 * p.diameter).ok


@pytest.mark.parametrize("n", [4, 63, 64, 65, 130, 1100])
def test_pair_distances_keep_the_bits_of_norm3(n):
    # Clouds straddling the row block of 64 rows, at scales from 1e-13 to
    # 1e150.  The diameter is the root of the largest square; the prune's
    # mask holds each root against its bound, here with near duplicates.
    rng = np.random.default_rng(n)
    P = rng.normal(size=(n, 3))
    p = build_from_vertices(P / np.linalg.norm(P, axis=1, keepdims=True))
    assert len(p.vertices) == n
    k = max(1, n // 4)
    P = p.vertices.copy()
    P[-k:] = P[:k] + 1e-10 * rng.normal(size=(k, 3))
    for s in (1e-13, 1e-6, 1.0, 1e6, 1e150):
        q = ConvexPolytope(p.normals, p.offsets * s, p.vertices * s, p.cycles, p.starts, p.center * s, p.inradius * s)
        assert q.diameter == float(_norm3(q.vertices[:, None, :] - q.vertices).max())
        Q = P * s
        ref = _norm3(Q[:, None, :] - Q)
        assert np.sqrt(np.vstack(list(polytope._pair_squares(Q)))).tobytes() == ref.tobytes()
        tol = 1e-9 * float(_norm3(Q - Q.mean(axis=0)).max())
        close = np.vstack([np.sqrt(sq) <= tol for sq in polytope._pair_squares(Q)])
        assert np.array_equal(close, ref <= tol) and close.sum() == n + 2 * k


def _reference_facet_planes(P):
    """The per-plane loop that the keep-first matrix replaced: each hull plane
    is kept unless it matches an earlier kept one; then the facet sort."""
    hull = ConvexHull(P)
    scale = float(np.linalg.norm(P - P.mean(axis=0), axis=1).max())
    planes = []
    for eq in hull.equations:
        n, d = eq[:3] / np.linalg.norm(eq[:3]), -eq[3]
        if not any(pn @ n > 1.0 - 1e-9 and abs(pd - d) < 1e-9 * scale for pn, pd in planes):
            planes.append((n, d))
    normals = np.array([n for n, _ in planes])
    offsets = np.array([d for _, d in planes])
    order = np.lexsort(np.round(np.column_stack([normals, offsets / scale]), 9).T[::-1])
    return normals[order], offsets[order]


def test_facet_planes_match_per_plane_reference():
    rng = np.random.default_rng(12)
    pyramid = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1.5]], float)
    clouds = [cube().vertices, regular_octahedron().vertices, pyramid, rng.normal(size=(40, 3))]
    clouds += [random_simple_polytope(rng).vertices for _ in range(3)]
    for P in clouds:
        p = build_from_vertices(P)
        normals, offsets = _reference_facet_planes(P)
        assert np.array_equal(p.normals, normals)
        assert np.array_equal(p.offsets, offsets)


def _cycle_tuples(p):
    """Per facet its vertex cycle, read from the corner table as int tuples."""
    return tuple(tuple(c.tolist()) for c in np.split(p.cycles, p.starts[1:]))


def _reference_facet_cycles(p, incidence=None):
    """The per-facet loop that the incidence from the hull's triangles
    replaced: each facet's vertices are those within 1e-9 * scale of its
    plane (or those of the given incidence column), sorted by angle about
    their centroid, here rotated to start at the lowest vertex index."""
    scale = float(np.linalg.norm(p.vertices - p.vertices.mean(axis=0), axis=1).max())
    cycles = []
    for f, (n, d) in enumerate(zip(p.normals, p.offsets)):
        if incidence is None:
            idx = np.where(np.abs(p.vertices @ n - d) <= 1e-9 * scale)[0]
        else:
            idx = np.flatnonzero(incidence[:, f])
        pts = p.vertices[idx]
        centroid = pts.mean(axis=0)
        ref = pts[0] - centroid
        ref -= float(np.dot(ref, n)) * n
        ref = ref / np.linalg.norm(ref)
        up = np.cross(n, ref)
        ang = np.arctan2((pts - centroid) @ up, (pts - centroid) @ ref)
        cyc = idx[np.argsort(ang, kind="stable")].tolist()
        k = cyc.index(min(cyc))
        cycles.append(tuple(cyc[k:] + cyc[:k]))
    return tuple(cycles)


def test_facet_cycles_match_per_facet_reference():
    rng = np.random.default_rng(2024)
    pyramid = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1.5]], float)
    bodies = [cube(), regular_tetrahedron(), regular_octahedron(), build_from_vertices(pyramid)]
    bodies.append(build_from_vertices(np.random.default_rng(12).normal(size=(40, 3))))
    simple = [random_simple_polytope(rng) for _ in range(20)]
    bodies += simple + [SmoothedBody(p, 0.2 * p.inradius).inner_body for p in simple]
    for p in bodies:
        assert _cycle_tuples(p) == _reference_facet_cycles(p)
        assert all(cyc[0] == min(cyc) for cyc in _cycle_tuples(p))


def _walk(following, start):
    """The corners of following's cycle through start, from start on."""
    walk = [start]
    while following[walk[-1]] != start:
        walk.append(int(following[walk[-1]]))
    return walk


def test_corner_table_invariants(spiky_body, monkeypatch):
    # The incidence each hull build ordered into cycles, by the bytes of its
    # vertices, to derive the views as they were built before the corner
    # table: each vertex's facets from its row, the cycles by the per-facet
    # loop, the edges from the cycles.
    incidences = {}
    facet_cycles = polytope._facet_cycles

    def keep(V, N, incidence):
        incidences[V.tobytes()] = np.array(incidence, dtype=bool)
        return facet_cycles(V, N, incidence)

    monkeypatch.setattr(polytope, "_facet_cycles", keep)
    rng = np.random.default_rng(2024)
    bodies = [cube(), regular_tetrahedron(), regular_octahedron()]
    bodies += [random_simple_polytope(rng) for _ in range(20)]
    bodies += list(_tangent_bodies())
    rungs = []
    eps = 0.2 * spiky_body.inradius
    while eps > 1e-6 * spiky_body.diameter:
        rungs.append(SmoothedBody(spiky_body, eps).inner_body)
        eps *= 0.5
    for p in bodies + rungs:
        table = (p.cycles, p.corner_facet, p.starts, p.following, p.edge_array)
        assert not any(a.flags.writeable for a in table)
        inc = incidences[p.vertices.tobytes()]
        ref = _reference_facet_cycles(p, inc)
        if p in bodies:  # no vertex cluster: the plane tolerance finds the same cycles
            assert ref == _reference_facet_cycles(p)
        # following is a permutation whose cycles are exactly the facet cycles.
        walks = [_walk(p.following, int(start)) for start in p.starts]
        assert sorted(c for w in walks for c in w) == list(range(len(p.cycles)))
        assert [tuple(p.cycles[w].tolist()) for w in walks] == list(ref)
        assert all((p.corner_facet[w] == f).all() for f, w in enumerate(walks))
        assert np.array_equal(np.argsort(p.following)[p.following], np.arange(len(p.cycles)))
        # Each corner's facet holds its vertex.
        assert inc[p.cycles, p.corner_facet].all() and len(p.cycles) == inc.sum()
        # Every edge is exactly two corner sides, and every side is an edge.
        sides = np.sort(np.column_stack([p.cycles, p.cycles[p.following]]), axis=1)
        rows, uses = np.unique(sides, axis=0, return_counts=True)
        assert np.array_equal(rows, p.edge_array) and (uses == 2).all()
        # Each vertex's corners name its facets in ascending order.
        by_vertex = [p.corner_facet[p.cycles == v].tolist() for v in range(len(p.vertices))]
        assert by_vertex == [np.flatnonzero(row).tolist() for row in inc]
        # The cycles and edges as the reference derives them.
        assert _cycle_tuples(p) == ref
        ref_edges = {tuple(sorted(pair)) for cyc in ref for pair in zip(cyc, cyc[1:] + cyc[:1])}
        assert tuple(map(tuple, p.edge_array.tolist())) == tuple(sorted(ref_edges))
        assert all(a.dtype == np.intp for a in (p.cycles, p.starts, p.edge_array))


def test_dented_cube_builds_and_inscribes():
    # One corner moved in by 2.5e-9: between 1e-9 * scale (1.7e-9) and
    # 1e-9 * diameter (3.5e-9), so a tightness test at the first tolerance
    # drops the corner from its facet, while the coplanar merge keeps one
    # plane for the facet's triangles, and the corner is built on it.
    corners = cube().vertices.copy()
    corners[7, 0] -= 2.5e-9
    p = build_from_vertices(corners)
    assert (len(p.vertices), len(p.normals), len(p.edge_array)) == (8, 6, 12)
    assert is_simple(p) == (True, [])
    assert all(len(cyc) == 4 for cyc in _cycle_tuples(p))
    _, final = continue_to_surface(p)
    assert certify(p, final.pose, 1e-7 * p.diameter).ok


def _parts(p):
    """The constructor arguments that rebuild p."""
    return [p.normals, p.offsets, p.vertices.copy(), p.cycles, p.starts, p.center, p.inradius]


def _drop_corner(parts, c):
    """Take corner c out of the table: its vertex leaves its facet."""
    parts[3] = np.delete(parts[3], c)
    parts[4] = parts[4] - (parts[4] > c)


def _outside(parts):
    parts[2][7] *= 1 + 1e-6


def _inside(parts):
    parts[2][7] *= 1 - 1e-6


def _facet_on_two(parts):
    # Every octahedron vertex lies on 4 facets, so taking one from facet 5
    # leaves it on 3 and the facet with 2.
    _drop_corner(parts, parts[4][5])


def _vertex_on_two(parts):
    # Vertex 0's first corner lies on its lowest facet.
    _drop_corner(parts, np.argmax(parts[3] == 0))


def _duplicate_facet(parts):
    parts[0] = np.vstack([parts[0], parts[0][:1]])
    parts[1] = np.append(parts[1], parts[1][0])
    parts[4] = np.append(parts[4], len(parts[3]))
    parts[3] = np.append(parts[3], parts[3][: parts[4][1]])


@pytest.mark.parametrize(
    "body, spoil, message",
    [
        (cube, _outside, "a vertex violates a halfspace beyond tolerance"),
        (cube, _inside, "facet 3 has a vertex off its plane"),
        (regular_octahedron, _facet_on_two, "facet 5 has fewer than 3 vertices"),
        (cube, _vertex_on_two, "vertex 0 lies on fewer than 3 facets"),
        (cube, _duplicate_facet, "every edge of a closed polytope must bound exactly 2 facets"),
    ],
    ids=["outside", "off_plane", "facet_on_two", "vertex_on_two", "duplicate_facet"],
)
def test_constructor_rejects_inconsistent_table(body, spoil, message):
    ConvexPolytope(*_parts(body()))
    parts = _parts(body())
    spoil(parts)
    with pytest.raises(Inconsistent, match=f"^{message}$"):
        ConvexPolytope(*parts)


def test_constructor_copies_its_arrays():
    base = cube()
    args = [np.array(a) for a in _parts(base)[:6]]
    p = ConvexPolytope(*args, base.inradius)
    mine = [p.normals, p.offsets, p.vertices, p.cycles, p.starts, p.center]
    kept = [arr.copy() for arr in mine]
    for arr in args:
        assert arr.flags.writeable
        arr[...] = 7
    for arr, before in zip(mine, kept):
        assert np.array_equal(arr, before)
        assert not arr.flags.writeable
    # Built from the base's own read-only arrays, it copies them too.
    q = ConvexPolytope(*_parts(base))
    for name in ("normals", "offsets", "vertices", "cycles", "starts", "center"):
        mine, theirs = getattr(q, name), getattr(base, name)
        assert not np.shares_memory(mine, theirs) and not theirs.flags.writeable, name


def test_deterministic_output():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 3))
    a = build_from_vertices(pts)
    b = build_from_vertices(pts)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.normals, b.normals)
    assert _cycle_tuples(a) == _cycle_tuples(b)


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
    (r,), (g,) = s.signed_distance(np.reshape([0, 0, 0], (1, 3)))
    assert r == pytest.approx(-0.1, abs=1e-15)
    assert np.allclose(g, 0)

    (r,), (g,) = s.signed_distance(np.reshape([1, 0, 0], (1, 3)))
    assert r == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(g, [1, 0, 0], atol=1e-12)

    # corner point: projection onto the inner cube corner
    (r,), (g,) = s.signed_distance(np.reshape([1, 1, 1], (1, 3)))
    assert r == pytest.approx(0.1 * math.sqrt(3) - 0.1, abs=1e-12)
    assert np.allclose(g, np.ones(3) / math.sqrt(3), atol=1e-12)


def test_smoothed_epsilon_bounds():
    with pytest.raises(Degenerate):
        SmoothedBody(cube(), 1.0)
    with pytest.raises(Degenerate):
        SmoothedBody(cube(), 0.0)


def _count_solid_angles(monkeypatch):
    """Count SolidAngle constructions from here on; returns the counter."""
    made = [0]
    init = SolidAngle.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SolidAngle, "__init__", counted)
    return made


def test_smoothed_body_solves_no_lp_and_builds_no_solid_angle(request, monkeypatch):
    bases = [cube(), regular_tetrahedron(), random_simple_polytope(np.random.default_rng(4))]
    radii = [p.inradius for p in bases]  # each base solved its own LP when built
    request.getfixturevalue("no_lp")
    made = _count_solid_angles(monkeypatch)
    for p, r in zip(bases, radii):
        for eps in (0.5 * r, 0.01 * r):
            SmoothedBody(p, eps)
    assert made[0] == 0


def test_builders_build_no_solid_angle(monkeypatch):
    corners = cube().vertices
    made = _count_solid_angles(monkeypatch)
    build_from_vertices(corners)
    normals = np.vstack([AXES, [[1, 1, 1] / np.sqrt(3)]])
    build_from_halfspaces(normals, np.concatenate([np.ones(6), [1.5]]))  # one corner cut
    assert made[0] == 0


def _reference_solid_angles(p):
    """The per-vertex check the array pass replaced: one SolidAngle per
    vertex, its neighbours found by a scan over the edges."""
    angles = []
    for vi, v in enumerate(p.vertices):
        neighbors = sorted({int(i if j == vi else j) for i, j in p.edge_array if vi in (i, j)})
        angles.append(SolidAngle(v, [_as_unit(p.vertices[nb] - v) for nb in neighbors]))
    return angles


def _reference_accepts(p):
    try:
        _reference_solid_angles(p)
    except GeometryError:
        return False
    return True


def _cone_check_accepts(p):
    try:
        polytope._check_vertex_cones(p)
    except InvalidSolidAngle:
        return False
    return True


def _tangent_bodies():
    """The inscribe_facets benchmark bodies: 8, 16, 32 and 64 halfspaces
    tangent to the unit sphere, normals from seed 2024."""
    shapes = np.random.default_rng(2024)
    for f in (8, 16, 32, 64):
        yield tangent_polytope(shapes, f)


def _boxes(rng, count):
    """Boxes with random half-widths in [0.01, 10], rotated and moved at random."""
    for _ in range(count):
        half = rng.uniform(0.01, 10, size=3)
        A = AXES @ np.linalg.qr(rng.normal(size=(3, 3)))[0].T
        yield build_from_halfspaces(A, np.concatenate([half, half]) + A @ rng.normal(size=3))


def test_cone_check_matches_per_vertex_reference(spiky_body):
    rng = np.random.default_rng(2024)
    bodies = [cube(), regular_tetrahedron(), regular_octahedron()]
    bodies += [random_simple_polytope(rng) for _ in range(20)]
    bodies += list(_tangent_bodies()) + list(_boxes(np.random.default_rng(77), 30))
    p = spiky_body
    eps = 0.2 * p.inradius
    while eps > 1e-6 * p.diameter:
        bodies.append(SmoothedBody(p, eps).inner_body)  # built without the check
        eps *= 0.5
    assert len(bodies) == 3 + 20 + 4 + 30 + 14
    for body in bodies:
        assert _cone_check_accepts(body) == _reference_accepts(body)


# Far from the origin, the split triangles' offsets differ by about
# delta * 1e3, so the hull keeps them as separate facets and the cone check,
# not the facet merge, decides.
_FAR = np.array([1e3, 2e3, 0.0])


def _pyramid_on_top(delta):
    """A cube whose top face carries a pyramid of height delta."""
    return build_from_vertices(np.vstack([cube().vertices, [0.3, 0.2, 1 + delta]]) + _FAR)


def _corner_cut(delta):
    """A cube with the plane through points delta from its corner (1, 1, 1)."""
    A = np.vstack([AXES, np.ones(3) / np.sqrt(3)])
    return build_from_halfspaces(A, np.append(np.ones(6), np.sqrt(3) - delta) + A @ _FAR)


def _roof_halfspaces(delta):
    """The roof of `_roof` at height delta, built from its 7 halfspaces.
    Its cone margins shrink with delta while its vertices stay apart."""
    N = np.vstack([AXES[[0, 1, 3, 4, 5]], [[0, -delta, 1], [0, delta, 1]]])
    return build_from_halfspaces(N, np.append(np.ones(5), [1 + delta, 1 + delta]))


@pytest.mark.parametrize(
    "build, facets",
    [
        (_pyramid_on_top, [9] * 6 + [None] * 5 + [6] * 2),
        # The cut points merge into one vertex below 1e-9, which leaves the cube.
        (_corner_cut, [7] * 7 + [6] * 6),
        (_roof_halfspaces, [7] * 7 + [None] * 6),
    ],
    ids=["_pyramid_on_top", "_corner_cut", "_roof_halfspaces"],
)
def test_cone_check_matches_reference_across_the_band(monkeypatch, build, facets):
    checked = polytope._check_vertex_cones
    reference = []

    def both(p):
        reference.append(_reference_accepts(p))
        checked(p)

    monkeypatch.setattr(polytope, "_check_vertex_cones", both)
    built = []
    for delta in 10.0 ** np.arange(-6, -12.5, -0.5):
        try:
            built.append(len(build(delta).normals))
        except InvalidSolidAngle as exc:
            assert re.match(r"vertex \d+: cone is not strictly convex at facet \d+", str(exc))
            built.append(None)
        assert (built[-1] is not None) == reference[-1]
    # Accepted above the band, rejected in it (margins of about delta).
    assert built == facets


def _roof(h):
    """A cube whose top is a roof of height h over the ridge y = 0, built from
    the cycles of its incidence.  Each ridge end is a corner of 180 degrees
    less O(h) on its side facet, and the roof's two facets meet at a
    dihedral of O(h)."""
    V = np.vstack([cube().vertices, [[-1, 0, 1 + h], [1, 0, 1 + h]]])
    N = np.vstack([AXES[[0, 1, 3, 4, 5]], [[0, -h, 1], [0, h, 1]]])
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    x, y, z = V.T
    top = z >= 1
    incidence = np.column_stack([x == 1, y == 1, x == -1, y == -1, z == -1, top & (y <= 0), top & (y >= 0)])
    D = np.array([N[f] @ V[incidence[:, f]][0] for f in range(len(N))])
    return ConvexPolytope(N, D, V, *polytope._facet_cycles(V, N, incidence), np.zeros(3), 1.0)


@pytest.mark.parametrize(
    "h, message",
    [
        (1e-6, None),
        (1e-9, None),
        (1e-10, r"^vertex 9: cone is not strictly convex at facet 5 \(margin 2e-10 "),
        (1e-13, r"^vertex 9: its edges along facet 0 coincide or are antipodal"),
    ],
    ids=["convex_1e-6", "convex_1e-9", "not_convex_1e-10", "antipodal_1e-13"],
)
def test_cone_check_on_a_roof_across_the_band(h, message):
    p = _roof(h)
    assert _reference_accepts(p) == (message is None)
    if message is None:
        polytope._check_vertex_cones(p)
    else:
        with pytest.raises(InvalidSolidAngle, match=message):
            polytope._check_vertex_cones(p)


def test_spiky_rung_inside_the_cone_band_keeps_its_base_planes(spiky_cloud):
    # Draw 108 of the spiky family pushed in by 0.2 * inradius / 2**14
    # (1.55e-6 diameters).  Two vertices of its inner body lie 1.2e-9
    # diameters apart.  An inner parallel body has the planes of its base:
    # a hull of its vertices made a 21st facet, the sliver triangle of
    # vertices 22, 23 and 27 on no base plane, which left the cone at vertex
    # 27 a margin of 5.2e-10 < DEFAULT_TOL.  From the planes' own incidence
    # every cone is valid, and the outside-input build accepts the body.
    p = build_from_vertices(spiky_cloud(108))
    eps = 0.2 * p.inradius / 2**14
    inner = SmoothedBody(p, eps).inner_body
    V = inner.vertices
    gaps = np.linalg.norm(V[:, None] - V[None], axis=2) + np.diag(np.full(len(V), np.inf))
    assert gaps.min() < 2e-9 * p.diameter
    assert len(p.normals) == 20 and inner.normals.tobytes() == p.normals.tobytes()
    assert _reference_accepts(inner)
    assert len(build_from_halfspaces(p.normals, p.offsets - eps).normals) == 20


def test_solid_angle_at_matches_edge_scan_reference(spiky_body):
    bodies = [cube(), regular_octahedron(), spiky_body]
    bodies.append(random_simple_polytope(np.random.default_rng(3)))
    for p in bodies:
        for vi, ref in enumerate(_reference_solid_angles(p)):
            got = solid_angle_at(p, vi)
            assert got.edges.tobytes() == ref.edges.tobytes()
            assert got.apex.tobytes() == ref.apex.tobytes()


def test_halfspace_build_solves_one_lp(request, monkeypatch):
    # The one LP is the Chebyshev ball of the input, which the built body
    # keeps; the halfspace intersection about its centre checks boundedness.
    # It is polytope's own simplex; scipy's linprog and milp are never called.
    calls = []
    real = polytope._chebyshev
    request.getfixturevalue("no_lp")

    def counted(normals, offsets):
        calls.append(len(normals))
        return real(normals, offsets)

    monkeypatch.setattr(polytope, "_chebyshev", counted)
    normals = np.vstack([AXES, [[1, 1, 1] / np.sqrt(3)]])
    build_from_halfspaces(normals, np.concatenate([np.ones(6), [1.5]]))
    assert calls == [7]


def _linprog_chebyshev(normals, offsets):
    """The Chebyshev LP through scipy's linprog (HiGHS): (center, radius), or
    None where HiGHS finds no optimum."""
    res = scipy.optimize.linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([normals, np.ones((len(normals), 1))]),
        b_ub=offsets,
        bounds=[(None, None)] * 3 + [(0, None)],
        method="highs",
    )
    return (res.x[:3], float(res.x[3])) if res.success else None


def test_chebyshev_matches_linprog(monkeypatch, spiky_cloud):
    # Every LP that builds the 20 criterion-3 bodies, with the 2 unbounded
    # draws their generator rejects, the 4 tangent bodies and the 3 stock
    # bodies; and the hull planes of the first 20 spiky clouds.  The simplex
    # fails where HiGHS does, and its ball is HiGHS's to 1e-13 of the
    # largest offset, with no row violated by more.
    inputs = []
    real = polytope._chebyshev

    def recording(normals, offsets):
        inputs.append((normals.copy(), offsets.copy()))
        return real(normals, offsets)

    monkeypatch.setattr(polytope, "_chebyshev", recording)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        random_simple_polytope(rng)
    list(_tangent_bodies())
    for stock in (cube, regular_tetrahedron, regular_octahedron):
        stock()
    monkeypatch.undo()
    inputs += [polytope._hull_planes(spiky_cloud(i)) for i in range(20)]
    assert len(inputs) == 22 + 4 + 3 + 20
    for normals, offsets in inputs:
        ref = _linprog_chebyshev(normals, offsets)
        try:
            center, radius = polytope._chebyshev(normals, offsets)
        except Degenerate:
            assert ref is None
            continue
        tol = 1e-13 * max(1.0, np.abs(offsets).max())
        assert np.abs(center - ref[0]).max() <= tol
        assert abs(radius - ref[1]) <= tol
        assert (offsets - normals @ center - radius).min() >= -tol


_LP_KINDS = ("bounded", "cylinder", "cone", "empty", "flat")
_TETRAHEDRON_NORMALS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)


def _lp_system(rng, kind):
    """Unit normals and offsets of a random system about the origin, with
    offsets in [0.5, 1.5] before the kind's own rows, rotated (a cylinder's
    axes only permuted, which keeps its normals exactly in a plane) and
    shuffled at random.  bounded: a tetrahedron's normals and up to 11
    more, up to 2 rows repeated and one redundant row 10 to 1e6 out;
    cylinder: normals around one plane; cone: normals in an open
    hemisphere; empty and flat: a bounded system plus n . x <= -a and
    -n . x <= -a, with a > 0 and a = 0."""
    extra = int(rng.integers(0, 12))
    if kind == "cylinder":
        angle = rng.uniform(0, 2 * np.pi) + np.r_[0, 2 * np.pi / 3, 4 * np.pi / 3, rng.uniform(0, 2 * np.pi, extra)]
        N = np.column_stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)])
    elif kind == "cone":
        N = np.column_stack([rng.normal(size=(extra + 3, 2)), rng.uniform(0.1, 1.0, extra + 3)])
    else:
        N = np.vstack([_TETRAHEDRON_NORMALS, rng.normal(size=(extra, 3))])
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    D = rng.uniform(0.5, 1.5, len(N))
    if kind == "bounded":
        twice = rng.integers(0, len(N), int(rng.integers(0, 3)))
        far = rng.normal(size=3)
        N = np.vstack([N, N[twice], far / np.linalg.norm(far)])
        D = np.r_[D, D[twice], 10.0 ** rng.uniform(1, 6)]
    elif kind in ("empty", "flat"):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a = rng.uniform(0.01, 1.0) if kind == "empty" else 0.0
        N, D = np.vstack([N, n, -n]), np.r_[D, -a, -a]
    if kind == "cylinder":
        R = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
    else:
        R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    order = rng.permutation(len(N))
    return N[order] @ R.T, D[order]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_LP_KINDS), st.integers(-13, 19), st.sampled_from([0.0, 1.0, 1e3, 1e6]), st.integers(0, 2**32 - 1))
def test_chebyshev_matches_linprog_on_random_systems(kind, exponent, shift, seed):
    # The system scaled by 10^exponent and moved about `shift` times its size
    # against HiGHS on the system as drawn, whose tolerances are absolute.
    # Repeated rows, rows tight at the start and flat systems make the
    # degenerate pivots that Bland's rule is there for.
    rng = np.random.default_rng(seed)
    N, D = _lp_system(rng, kind)
    t = shift * rng.normal(size=3) / np.sqrt(3)
    scale = 10.0**exponent
    offsets = scale * (D + N @ t)
    ref = _linprog_chebyshev(N, D)
    assert (ref is None) == (kind in ("cone", "empty"))
    try:
        center, radius = polytope._chebyshev(N, offsets)
    except Degenerate as exc:
        assert kind == "cone" and "unbounded" in str(exc)
        return
    assert kind != "cone"
    # An empty or flat system, and only such a one, has no positive radius.
    assert (radius <= 0) == (ref is None or ref[1] == 0)
    tol = 1e-13 * np.abs(offsets).max()
    assert (offsets - N @ center - radius).min() >= -tol
    if kind in ("bounded", "cylinder"):
        # A cylinder's centre slides along its axis; its radius does not.
        assert abs(radius - scale * ref[1]) <= tol
    if kind == "bounded":
        assert np.abs(center - scale * (ref[0] + t)).max() <= tol


def _count_qhull(monkeypatch):
    """Count the qhull calls through polytope's names from here on."""
    calls = {"ConvexHull": 0, "HalfspaceIntersection": 0}
    for name in calls:

        def counted(*args, _name=name, _real=getattr(polytope, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(polytope, name, counted)
    return calls


def test_each_build_makes_one_halfspace_intersection(monkeypatch, spiky_body):
    # The halfspace intersection's dual facets give the incidence and the
    # boundedness check: no hull of the normals or of the vertices.
    normals = np.vstack([AXES, [[1, 1, 1] / np.sqrt(3)]])
    calls = _count_qhull(monkeypatch)
    build_from_halfspaces(normals, np.concatenate([np.ones(6), [1.5]]))
    assert calls == {"ConvexHull": 0, "HalfspaceIntersection": 1}
    # A non-simple base's inner body takes the hull path.
    calls.update(ConvexHull=0, HalfspaceIntersection=0)
    SmoothedBody(spiky_body, 0.1 * spiky_body.inradius)
    assert calls == {"ConvexHull": 0, "HalfspaceIntersection": 1}
    # Vertex input first finds its hull planes.
    calls.update(ConvexHull=0, HalfspaceIntersection=0)
    build_from_vertices(spiky_body.vertices)
    assert calls == {"ConvexHull": 1, "HalfspaceIntersection": 1}


def test_builders_accept_bodies_far_from_the_origin():
    # The criterion-3 bodies moved 1e6 diameters out.
    rng = np.random.default_rng(2024)
    for _ in range(20):
        p = random_simple_polytope(rng)
        t = 1e6 * p.diameter * np.array([1.0, 0.3, -0.2])
        for q in (build_from_halfspaces(p.normals, p.offsets + p.normals @ t), build_from_vertices(p.vertices + t)):
            assert (len(q.vertices), len(q.normals)) == (len(p.vertices), len(p.normals))


def test_halfspace_build_of_a_tiny_cube():
    # No absolute floor on the spread of the vertices: a cube of half-side
    # 1e-13 builds from its halfspaces.
    p = build_from_halfspaces(AXES, np.full(6, 1e-13))
    assert p.inradius == pytest.approx(1e-13, rel=1e-12)
    assert p.vertices.tolist() == (cube().vertices * 1e-13).tolist()


def test_vertex_build_of_a_tiny_cube():
    # The same cube from its vertices: the same vertices, corner table and
    # Chebyshev ball as from its halfspaces.
    p = build_from_halfspaces(AXES, np.full(6, 1e-13))
    q = build_from_vertices(cube().vertices * 1e-13)
    for a, b in ((p.vertices, q.vertices), (p.cycles, q.cycles), (p.starts, q.starts), (p.center, q.center)):
        assert a.tobytes() == b.tobytes()
    assert p.inradius == q.inradius


@pytest.mark.parametrize("points", [np.zeros((8, 3)), np.full((8, 3), 5.0), cube().vertices * 1e-13 + 1.0],
                         ids=["origin", "equal", "tiny-cube-at-1"])
def test_vertex_build_rejects_coincident_points(points):
    # The floor on the spread is 1e-12 of the coordinates' magnitude.
    with pytest.raises(Degenerate, match="points are coincident"):
        build_from_vertices(points)


@pytest.mark.parametrize(
    "normals",
    [
        # closed hemisphere: the origin lies on a face of the normals' hull
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]],
        # coplanar normals: an infinite prism
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [1, 1, 0]],
        # open hemisphere: the intersection is a cone open towards -z
        [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0.2, 0.3, 1]],
    ],
    ids=["closed_hemisphere", "coplanar", "open_cone"],
)
def test_unbounded_halfspaces_are_degenerate(normals):
    with pytest.raises(Degenerate, match="unbounded"):
        build_from_halfspaces(np.array(normals, dtype=float), np.ones(len(normals)))


def _lexsorted(p):
    """p relabeled as the builders order it: its vertices sorted
    lexicographically, and its table with each vertex index replaced by its
    rank there and each facet cycle turned to start at its lowest new index.
    Returns the vertices and a dict of the table arrays."""
    order = np.lexsort(p.vertices.T[::-1])
    rank = np.argsort(order)
    cycles = []
    for cyc in np.split(rank[p.cycles], p.starts[1:]):
        k = np.argmin(cyc)
        cycles.append(np.concatenate([cyc[k:], cyc[:k]]))
    edges = np.unique(np.sort(rank[p.edge_array], axis=1), axis=0)
    table = {
        "cycles": np.concatenate(cycles),
        "starts": p.starts,
        "corner_facet": p.corner_facet,
        "edge_array": edges,
    }
    return p.vertices[order], table


def test_inner_body_matches_halfspace_build():
    """The inner body, relabeled as the builders order it, equals the
    outside-input build of the pushed-in halfspaces over the continuation's
    epsilon ladder, including where its face lattice differs from the
    base's."""
    rng = np.random.default_rng(2024)
    bodies = [cube(), regular_tetrahedron()] + [random_simple_polytope(rng) for _ in range(20)]
    lattice_changes = 0
    for p in bodies:
        eps = 0.2 * p.inradius
        while eps > 1e-6 * p.diameter:
            inner = SmoothedBody(p, eps).inner_body
            ref = build_from_halfspaces(p.normals, p.offsets - eps)
            tol = 1e-12 * p.diameter
            vertices, table = _lexsorted(inner)
            for name in ("cycles", "starts", "edge_array"):
                assert np.array_equal(table[name], getattr(ref, name)), name
            assert np.abs(inner.normals - ref.normals).max() <= tol
            assert np.abs(inner.offsets - ref.offsets).max() <= tol
            assert np.abs(vertices - ref.vertices).max() <= tol
            assert np.abs(inner.center - ref.center).max() <= tol
            assert abs(inner.inradius - ref.inradius) <= tol
            lattice_changes += _cycle_tuples(inner) != _cycle_tuples(p)
            eps *= 0.5
    assert lattice_changes >= 1


def _ladder(p):
    """The continuation's epsilon ladder on p: 0.2 * inradius, halved while
    above 1e-6 * diameter."""
    eps = 0.2 * p.inradius
    while eps > 1e-6 * p.diameter:
        yield eps
        eps *= 0.5


@pytest.fixture
def hull_builds(monkeypatch):
    """A list that gains one entry per polytope built from its planes: an
    inner body built by the hull path, or a builder's output."""
    calls = []
    plane_polytope = polytope._plane_polytope

    def spy(*args):
        calls.append(args)
        return plane_polytope(*args)

    monkeypatch.setattr(polytope, "_plane_polytope", spy)
    return calls


def test_closed_form_inner_body_matches_hull_build(hull_builds):
    """On every ladder rung of the stock, criterion-3 and tangent bodies,
    the closed form keeps the base's corner table; relabeled as the
    builders order it, that is the hull path's corner table and edges, and
    its vertices match the hull path's to 1e-12 * diameter."""
    rng = np.random.default_rng(2024)
    bodies = [cube(), regular_tetrahedron()] + [random_simple_polytope(rng) for _ in range(20)]
    bodies += list(_tangent_bodies())
    closed = 0
    for p in bodies:
        for eps in _ladder(p):
            hull_builds.clear()
            inner = SmoothedBody(p, eps).inner_body
            if hull_builds:
                continue
            closed += 1
            names = ("cycles", "starts", "corner_facet", "following", "edge_array")
            for name in names:
                assert np.array_equal(getattr(inner, name), getattr(p, name)), name
            ref = polytope._plane_polytope(p.normals, p.offsets - eps, (p.center, p.inradius - eps))
            vertices, table = _lexsorted(inner)
            for name in ("cycles", "starts", "corner_facet", "edge_array"):
                assert np.array_equal(table[name], getattr(ref, name)), name
            assert np.abs(vertices - ref.vertices).max() <= 1e-12 * p.diameter
            assert np.array_equal(inner.normals, p.normals)
            assert np.array_equal(inner.offsets, p.offsets - eps)
    assert closed >= 380


def test_closed_form_needs_no_qhull(monkeypatch, hull_builds):
    rng = np.random.default_rng(2024)
    bodies = [cube(), random_simple_polytope(rng), next(_tangent_bodies())]

    def refuse(*args, **kwargs):
        raise AssertionError("qhull was called")

    monkeypatch.setattr(polytope, "ConvexHull", refuse)
    monkeypatch.setattr(polytope, "HalfspaceIntersection", refuse)
    monkeypatch.setattr(polytope, "_facet_cycles", refuse)
    hull_builds.clear()  # the base builds
    for p in bodies:
        inner = SmoothedBody(p, 1e-3 * p.inradius).inner_body
        assert (len(inner.vertices), len(inner.edge_array)) == (len(p.vertices), len(p.edge_array))
        for name in ("cycles", "starts", "corner_facet", "following", "edge_array"):
            assert np.array_equal(getattr(inner, name), getattr(p, name)), name
    assert not hull_builds


def test_vanishing_facet_takes_the_hull_path(hull_builds):
    # A cube with one corner cut 0.1 deep along (1, 1, 1): the corner
    # triangle survives in the inner body while eps < 0.1 / (3 - sqrt 3).
    normals = np.vstack([AXES, np.ones(3) / math.sqrt(3)])
    p = build_from_halfspaces(normals, np.append(np.ones(6), 2.9 / math.sqrt(3)))
    assert is_simple(p)[0] and len(p.normals) == 7
    hull_builds.clear()  # the base build
    assert len(SmoothedBody(p, 0.05).inner_body.normals) == 7
    assert not hull_builds
    inner = SmoothedBody(p, 0.1).inner_body
    assert len(hull_builds) == 1
    assert (len(inner.vertices), len(inner.normals)) == (8, 6)


def test_non_simple_bases_take_the_hull_path(spiky_body, hull_builds):
    rungs = 0
    bases = (regular_octahedron(), spiky_body)
    hull_builds.clear()  # the base builds
    for p in bases:
        assert not is_simple(p)[0]
        for eps in _ladder(p):
            SmoothedBody(p, eps)
            rungs += 1
    assert len(hull_builds) == rungs


def test_closed_form_keeps_every_ladder(monkeypatch):
    """The continuation on the criterion-3 and tangent bodies keeps its step
    count and flags, and its final vertices to 1e-12 * diameter, against a
    run whose inner bodies all take the hull path."""
    rng = np.random.default_rng(2024)
    bodies = [random_simple_polytope(rng) for _ in range(20)] + list(_tangent_bodies())
    closed = [continue_to_surface(p) for p in bodies]
    monkeypatch.setattr(polytope, "_closed_form_inner", lambda p, eps, ball: None)
    for p, (trace, final) in zip(bodies, closed):
        ref_trace, ref_final = continue_to_surface(p)
        assert len(trace.steps) == len(ref_trace.steps)
        assert trace.flags == ref_trace.flags
        moved = np.abs(final.pose.vertices() - ref_final.pose.vertices()).max()
        assert moved <= 1e-12 * p.diameter


def test_smoothed_thin_box_near_inradius_is_degenerate():
    half = np.array([1.0, 1.0, 0.01])
    box = build_from_halfspaces(AXES, np.concatenate([half, half]))
    SmoothedBody(box, box.inradius - 1e-5)
    with pytest.raises(Degenerate):
        SmoothedBody(box, box.inradius - 1e-7)


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


def _in_halfspaces(p, X):
    """The halfspace test: X satisfies every halfspace of p."""
    return (X @ p.normals.T - p.offsets).max(axis=1) <= 0


def test_smoothed_subset_of_base():
    rng = np.random.default_rng(7)
    body = regular_tetrahedron()
    s = SmoothedBody(body, 0.15)
    # points on the smoothed boundary: project random directions
    X = rng.normal(size=(10_000, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X = X * body.diameter
    assert not _in_halfspaces(s.inner_body, X).any()  # so the nearest boundary point is the projection
    _, proj, _, _ = s.inner_body.nearest_boundary(X)
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
            (r,), (g,) = s.signed_distance(np.reshape(x, (1, 3)))
            if r < -s.epsilon + 10 * h:  # skip the kink at the inner body
                continue
            fd = np.zeros(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[k] = (
                    s.signed_distance(np.reshape(x + e, (1, 3)))[0][0]
                    - s.signed_distance(np.reshape(x - e, (1, 3)))[0][0]
                ) / (2 * h)
            assert np.abs(fd - g).max() <= 1e-5
            checked += 1


def _reference_exact_signed_distance(p, X):
    """The polish residual's formula before ConvexPolytope.signed_distance:
    the distance to the nearest boundary point, negative inside, and the
    signed unit vector from that point; on the boundary (distance at most
    1e-300), the outward normal of the first facet whose plane holds the
    point within 1e-12 * diameter, else 0."""
    d, proj, _, _ = p.nearest_boundary(X)
    sign = np.where(_in_halfspaces(p, X), -1.0, 1.0)
    grad = np.zeros_like(X)
    ok = d > 1e-300
    grad[ok] = sign[ok, None] * (X[ok] - proj[ok]) / d[ok, None]
    on_plane = np.abs(X @ p.normals.T - p.offsets) <= 1e-12 * p.diameter
    on_facet = ~ok & on_plane.any(axis=1)
    grad[on_facet] = p.normals[on_plane[on_facet].argmax(axis=1)]
    return sign * d, grad


def _reference_smoothed_signed_distance(s, X):
    """The smoothed residual's formula before it was built on the inner
    body's signed_distance: the distance to the solid inner body (0 inside)
    and the projection onto it, then r = d - eps; on the inner body's
    boundary, the gradient of its exact signed distance."""
    inside = _in_halfspaces(s.inner_body, X)
    dist, proj, _, _ = s.inner_body.nearest_boundary(X)
    d = np.where(inside, 0.0, dist)
    proj = np.where(inside[:, None], X, proj)
    grad = np.zeros_like(X)
    out = d > 1e-300
    grad[out] = (X[out] - proj[out]) / d[out, None]
    on = dist <= 1e-300
    grad[on] = _reference_exact_signed_distance(s.inner_body, X[on])[1]
    return d - s.epsilon, grad


def _probe_points(p, rng):
    """Points inside p, outside it, and on its boundary: vertices, edge
    midpoints and facet centroids."""
    V = p.vertices
    mids = np.array([(V[i] + V[j]) / 2 for i, j in p.edge_array])
    centroids = np.array([V[cyc].mean(axis=0) for cyc in np.split(p.cycles, p.starts[1:])])
    inner = rng.dirichlet(np.ones(len(V)), size=50) @ V
    dirs = rng.normal(size=(50, 3))
    dirs *= rng.uniform(1.0, 1.5, size=(50, 1)) * p.diameter / np.linalg.norm(dirs, axis=1)[:, None]
    return np.vstack([inner, p.center + dirs, V, mids, centroids, p.center])


def _same_bits(got, want):
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_signed_distance_matches_reference_formulas():
    rng = np.random.default_rng(43)
    normals = rng.normal(size=(64, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    bodies = [cube(), regular_tetrahedron(), regular_octahedron(), random_simple_polytope(rng)]
    bodies.append(build_from_halfspaces(normals, np.ones(64)))
    for p in bodies:
        X = _probe_points(p, rng)
        inside = _in_halfspaces(p, X)
        assert inside.any() and not inside.all()
        assert _same_bits(p.signed_distance(X), _reference_exact_signed_distance(p, X))
        s = SmoothedBody(p, 0.2 * p.inradius)
        Y = np.vstack([X, _probe_points(s.inner_body, rng)])
        assert _same_bits(s.signed_distance(Y), _reference_smoothed_signed_distance(s, Y))


def test_signed_distance_labels_no_feature(monkeypatch):
    # The residuals of the LM read the distance kernel only: with
    # nearest_boundary and the feature rule refused, both signed distances
    # keep the reference formulas' bits on points that span three blocks.
    rng = np.random.default_rng(45)
    normals = rng.normal(size=(64, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    cases = []
    for p in (cube(), random_simple_polytope(rng), build_from_halfspaces(normals, np.ones(64))):
        s = SmoothedBody(p, 0.2 * p.inradius)
        X = np.vstack([_probe_points(p, rng), _probe_points(s.inner_body, rng)])
        X = np.vstack([X, p.center + rng.uniform(-1, 1, size=(2500 - len(X), 3)) * p.diameter])
        assert len(X) == 2500 > 2 * polytope._POINT_BLOCK
        want = (_reference_exact_signed_distance(p, X), _reference_smoothed_signed_distance(s, X))
        cases.append((p, s, X, want))

    def refuse(*args, **kwargs):
        raise AssertionError("a feature label was computed")

    monkeypatch.setattr(ConvexPolytope, "nearest_boundary", refuse)
    monkeypatch.setattr(ConvexPolytope, "_features", refuse)
    for p, s, X, (exact, smoothed) in cases:
        assert _same_bits(p.signed_distance(X), exact)
        assert _same_bits(s.signed_distance(X), smoothed)


@pytest.mark.parametrize("block", [None, 4])
def test_distance_queries_keep_the_bits_of_their_blocks(monkeypatch, block):
    # A query that fits in one block runs the kernel once without a
    # concatenation; a larger one runs it per block.  Either way each output
    # is, byte for byte, that of the query on each block concatenated.
    if block is not None:
        monkeypatch.setattr(polytope, "_POINT_BLOCK", block)
    size = polytope._POINT_BLOCK
    rng = np.random.default_rng(47)
    p = random_simple_polytope(rng)
    s = SmoothedBody(p, 0.2 * p.inradius)
    for n in (1, 6, 2 * size + 5):
        X = p.center + rng.normal(size=(n, 3)) * 0.5 * p.diameter
        X[: min(n, len(p.vertices)) : 2] = p.vertices[: min(n, len(p.vertices)) : 2]
        for query in (p.nearest_boundary, p.signed_distance, s.signed_distance):
            parts = [query(X[i : i + size]) for i in range(0, n, size)]
            want = tuple(map(np.concatenate, zip(*parts)))
            got = query(X)
            assert all(a.dtype == b.dtype for a, b in zip(got, want)) and _same_bits(got, want)


def test_distance_queries_on_no_points():
    # Zero points run as one empty block: empty outputs of the usual dtypes.
    p = random_simple_polytope(np.random.default_rng(7))
    X = np.empty((0, 3))
    for d, grad in (p.signed_distance(X), SmoothedBody(p, 0.2 * p.inradius).signed_distance(X)):
        assert (d.shape, d.dtype, grad.shape, grad.dtype) == ((0,), float, (0, 3), float)
    dist, proj, kind, index = p.nearest_boundary(X)
    assert (dist.shape, dist.dtype, proj.shape, proj.dtype) == ((0,), float, (0, 3), float)
    assert (kind.shape, index.shape) == ((0,), (0,))
    assert kind.dtype == index.dtype == np.intp


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

    for fi, cyc in enumerate(np.split(p.cycles, p.starts[1:])):
        n = p.normals[fi]
        t = x @ n - p.offsets[fi]
        foot = x - t * n
        pts = p.vertices[cyc]
        inward = np.cross(n, np.roll(pts, -1, axis=0) - pts)
        inward /= np.linalg.norm(inward, axis=1, keepdims=True)
        if all((foot - a) @ m >= -tol for a, m in zip(pts, inward)):
            consider(abs(t), foot, "facet", fi)
    for ei, (i, j) in enumerate(p.edge_array):
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
    for ei, (i, j) in enumerate(p.edge_array):
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
        mids = np.array([(V[i] + V[j]) / 2 for i, j in p.edge_array])
        centroids = np.array([V[cyc].mean(axis=0) for cyc in np.split(p.cycles, p.starts[1:])])
        inner = rng.dirichlet(np.ones(len(V)), size=30) @ V
        dirs = rng.normal(size=(30, 3))
        outer = p.center + dirs / np.linalg.norm(dirs, axis=1)[:, None] * p.diameter
        X = np.vstack([inner, outer, V, mids, centroids, p.center])
        assert _in_halfspaces(p, inner).all() and not _in_halfspaces(p, outer).any()
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
    edge_feet = p._segment_feet(proj)[:, : len(p.edge_array)]
    off_band = np.linalg.norm(proj[:, None] - edge_feet, axis=2).min(axis=1)
    assert np.any((kind == 1) & (off_band > 1e-12 * p.diameter))
    for k, x in enumerate(X):
        d_ref, y_ref, kind_ref, idx_ref = _reference_nearest_feature(p, x)
        assert abs(dist[k] - d_ref) <= 1e-9 * p.diameter
        assert np.linalg.norm(proj[k] - y_ref) <= 1e-9 * p.diameter
        assert (("facet", "edge", "vertex")[kind[k]], index[k]) == (kind_ref, idx_ref)


def _reference_queries(p, X):
    """(nearest_boundary, signed_distance) of p at X by the distance kernel
    that kept edges and vertices apart: facet planes and corner planes in
    two matmuls, edge feet, and the vertices broadcast per point.  Test-only
    copy of the replaced code, in blocks of _POINT_BLOCK points."""
    anchors = p.vertices[p.cycles]
    M = _cross(p.normals[p.corner_facet], p.vertices[p.cycles[p.following]] - anchors)
    M /= _norm3(M)[:, None]
    Mc = np.einsum("ij,ij->i", anchors, M)
    A = p.vertices[p.edge_array[:, 0]]
    T = p.vertices[p.edge_array[:, 1]] - A
    L = _norm3(T)
    T = T / L[:, None]
    tol = 1e-12 * p.diameter
    n_f, n_e = len(p.normals), len(p.edge_array)

    def edge_feet(X):
        s = np.clip(np.einsum("nek,ek->ne", X[:, None, :] - A, T), 0.0, L)
        return A + s[..., None] * T

    def block(X):
        rows = np.arange(len(X))
        t = X @ p.normals.T - p.offsets
        held = np.minimum.reduceat(X @ M.T - Mc, p.starts, axis=1) >= -tol
        vertices = np.broadcast_to(p.vertices, (len(X),) + p.vertices.shape)
        rest = np.concatenate([edge_feet(X), vertices], axis=1)
        feet = np.concatenate([X[:, None, :] - t[..., None] * p.normals, rest], axis=1)
        facet_d = np.where(held, np.abs(t), np.inf)
        dist = np.concatenate([facet_d, _norm3(X[:, None, :] - rest)], axis=1)
        col = np.argmax(dist <= dist.min(axis=1, keepdims=True) + tol, axis=1)
        return dist[rows, col], feet[rows, col], col, t.max(axis=1) <= 0

    def features(proj, col):
        on_vertex = _norm3(proj[:, None, :] - p.vertices) <= tol
        on_edge = _norm3(proj[:, None, :] - edge_feet(proj)) <= tol
        own_kind = (col >= n_f).astype(int) + (col >= n_f + n_e)
        hit = [on_vertex.any(axis=1), on_edge.any(axis=1)]
        kind = np.select(hit, [2, 1], own_kind)
        own_index = col - np.array([0, n_f, n_f + n_e])[own_kind]
        index = np.select(hit, [on_vertex.argmax(axis=1), on_edge.argmax(axis=1)], own_index)
        return kind, index

    blocks = [block(X[i : i + polytope._POINT_BLOCK]) for i in range(0, len(X), polytope._POINT_BLOCK)]
    d, proj, col, inside = map(np.concatenate, zip(*blocks))
    sign = np.where(inside, -1.0, 1.0)
    grad = np.zeros(X.shape)
    off = d > 1e-300
    np.divide(sign[:, None] * (X - proj), d[:, None], out=grad, where=off[:, None])
    facet = (d <= 1e-300) & (col < n_f)
    grad[facet] = p.normals[col[facet]]
    return (d, proj, *features(proj, col)), (sign * d, grad)


def test_distance_kernel_has_the_bits_of_separate_edges_and_vertices(spiky_body):
    # Random points in and around each body, then every vertex and every
    # edge midpoint exactly, in three blocks of _POINT_BLOCK points.
    bodies = [random_simple_polytope(np.random.default_rng(2024)), list(_tangent_bodies())[-1], spiky_body]
    assert len(bodies[1].normals) == 64
    rng = np.random.default_rng(26)
    for p in bodies:
        V = p.vertices
        X = np.vstack([
            p.center + rng.normal(size=(3000, 3)) * 0.5 * p.diameter,
            V,
            (V[p.edge_array[:, 0]] + V[p.edge_array[:, 1]]) / 2,
        ])
        assert len(X) > 2 * polytope._POINT_BLOCK
        nearest_ref, signed_ref = _reference_queries(p, X)
        for got, ref in zip(p.nearest_boundary(X) + p.signed_distance(X), nearest_ref + signed_ref):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_random_polytopes_validate():
    rng = np.random.default_rng(20)
    for _ in range(5):
        p = random_simple_polytope(rng)
        assert is_simple(p)[0]
        slack = p.vertices @ p.normals.T - p.offsets[None, :]
        assert slack.max() <= 1e-9 * p.diameter
        assert p.inradius > 1e-6 * p.diameter
