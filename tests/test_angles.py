import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octainscribe.angles import (
    ClassTag,
    ConstructionFailed,
    FitTag,
    GeneralKind,
    InvalidSolidAngle,
    NotNonSpecial,
    NotTrihedral,
    SolidAngle,
    T0_AREA,
    T0_SIDE,
    T0_TRIANGLE,
    T0_VERTEX_ANGLE,
    classify_general,
    classify_trihedral,
    construct_inscribed_octahedron,
    deformation_path,
    fits_in_T0,
    normalize_ordering,
    placement_test,
    spherical_triangle_of,
    triangle_from_sides,
)
from octainscribe.generators import (
    random_large_side_sides,
    random_rotation_matrix,
    random_small_special_sides,
    random_triangle,
    random_trihedral_angle,
)
from octainscribe.oracle import inscribed_in_cone_check
from octainscribe.sphere import SphPolygon, SphTriangle, area, arc_distance, vertex_angle

E1, E2, E3 = np.eye(3)


def normalize(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# -- T0 ----------------------------------------------------------------------


def test_T0_constants():
    sides = T0_TRIANGLE.side_lengths()
    for s in sides:
        assert s == pytest.approx(math.pi / 3, abs=1e-12)
    for i in range(3):
        assert vertex_angle(T0_TRIANGLE, i) == pytest.approx(math.acos(1 / 3), abs=1e-12)
    assert T0_VERTEX_ANGLE == pytest.approx(math.acos(1 / 3), abs=1e-15)
    assert T0_AREA == pytest.approx(area(T0_TRIANGLE), abs=1e-12)
    assert np.allclose(T0_TRIANGLE.matrix[0], E3, atol=1e-15)


# -- SolidAngle --------------------------------------------------------------


def test_solid_angle_canonicalizes_order():
    ang = SolidAngle((0, 0, 0), [E1, E3, E2])  # given clockwise
    assert np.allclose(ang.edges[0], E1)
    tri = spherical_triangle_of(ang)
    assert np.linalg.det(tri.matrix) > 0


def test_solid_angle_rejects_flat_and_nonsalient():
    with pytest.raises(InvalidSolidAngle):
        SolidAngle((0, 0, 0), [E1, E2, normalize([1, 1, 0])])
    with pytest.raises(InvalidSolidAngle):
        SolidAngle((0, 0, 0), [E1, E2, -E1, -E2])  # closed halfplane fan
    with pytest.raises(InvalidSolidAngle):
        SolidAngle((0, 0, 0), [E1, E2])


def test_solid_angle_rejects_nonextreme_edge():
    inner = normalize([1, 1, 0.05])
    with pytest.raises(InvalidSolidAngle):
        SolidAngle((0, 0, 0), [E1, inner, E2, E3])


def test_solid_angle_accepts_narrow_cone():
    # Convexity margins of about 1e-5 rad, while the unnormalized cross
    # products of its edges are about 1e-10, below tol.
    h = 1e-5
    ang = SolidAngle((0, 0, 0), [(h, 0, 1), (0, h, 1), (-h, -h, 1)])
    assert ang.n_edges == 3
    assert np.all(ang.edges @ ang.polygon.axis > 0)
    for i in range(3):
        # Outward facet normals, although the polygon's hemisphere axis
        # lies far outside so narrow a cone.
        dots = ang.edges @ ang.facet_normal(i)
        assert dots[(i + 2) % 3] < 0
        assert np.all(dots < 1e-15)


def _same_cycle(a, b):
    return any(np.allclose(np.roll(a, k, axis=0), b, atol=1e-15) for k in range(len(a)))


def test_solid_angle_accepts_cone_whose_lp_axis_lies_outside(no_lp):
    # A wide, flat, strictly convex four-edge cone whose LP hemisphere axis
    # lies outside the cone, so sorting around that axis would give a
    # non-convex order.  The edge mean is always inside, and the side
    # normals give a hemisphere axis without an LP.
    edges = [
        [-0.6639, -0.7478, 0.001],
        [0.9627, -0.2705, 0.0004],
        [0.946, -0.324, 0.001],
        [-0.9999, -0.0103, 0.0008],
    ]
    ang = SolidAngle((0, 0, 0), edges)
    assert ang.n_edges == 4
    assert np.allclose(ang.edges[0], normalize(edges[0]), atol=1e-15)
    assert np.allclose(ang.polygon.matrix, ang.edges, atol=1e-15)
    assert np.all(ang.edges @ ang.polygon.axis > 0)
    assert _same_cycle(SolidAngle((0, 0, 0), edges[::-1]).edges, ang.edges)


def test_solid_angle_solves_hemisphere_axis_once(monkeypatch):
    from octainscribe import angles, sphere

    calls = []
    real = sphere.hemisphere_axis

    def counting(arr, tol=sphere.DEFAULT_TOL):
        calls.append(len(arr))
        return real(arr, tol)

    # Both modules bind the name; count a call through either.
    monkeypatch.setattr(sphere, "hemisphere_axis", counting)
    monkeypatch.setattr(angles, "hemisphere_axis", counting)
    flat = [normalize([1, 0, 0.01]), normalize([-0.5, 0.87, 0.01]), normalize([-0.5, -0.87, 0.01])]
    for edges in ([E1, E3, E2], [E1, normalize([1, 1, -0.2]), E2, E3], flat):
        calls.clear()
        SolidAngle((0, 0, 0), edges)
        assert calls == [len(edges)]


def test_spherical_triangle_of_cube_corner():
    ang = SolidAngle((0, 0, 0), np.eye(3))
    tri = spherical_triangle_of(ang)
    assert np.allclose(sorted(tri.side_lengths()), [math.pi / 2] * 3, atol=1e-12)
    assert np.allclose(ang.facet_angles(), [math.pi / 2] * 3, atol=1e-15)


def test_spherical_triangle_of_requires_trihedral():
    ang = SolidAngle((0, 0, 0), [E1, normalize([1, 1, -0.2]), E2, E3])
    assert ang.n_edges == 4
    with pytest.raises(NotTrihedral):
        spherical_triangle_of(ang)


def test_tetrahedron_corner_facet_angles():
    from octainscribe.polytope import regular_tetrahedron, solid_angle_at

    t = regular_tetrahedron()
    ang = solid_angle_at(t, 0)
    assert np.allclose(ang.facet_angles(), [math.pi / 3] * 3, atol=1e-12)


# -- normalize_ordering ------------------------------------------------------


def test_normalize_ordering_identity_when_sorted():
    tri = triangle_from_sides(0.9, 0.6, 0.4)
    assert normalize_ordering(tri) is tri


def test_normalize_ordering_sorts_sides():
    tri = triangle_from_sides(0.4, 0.9, 0.6)
    out = normalize_ordering(tri)
    s12, s13, s23 = out.side_lengths()
    assert s12 >= s13 >= s23
    assert np.allclose(sorted(out.side_lengths()), sorted(tri.side_lengths()), atol=1e-12)
    assert area(out) == pytest.approx(area(tri), abs=1e-12)


def test_normalize_ordering_equilateral_any_labeling():
    tri = triangle_from_sides(0.5, 0.5, 0.5)
    out = normalize_ordering(tri)
    assert np.allclose(sorted(out.side_lengths()), sorted(tri.side_lengths()), atol=1e-12)


def test_normalize_ordering_preserves_classification():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        tri = random_triangle(rng)
        a = placement_test(tri)
        b = placement_test(normalize_ordering(tri))
        assert a.tag is b.tag
        assert a.margin == pytest.approx(b.margin, abs=1e-9)


# -- placement_test ----------------------------------------------------------


def test_placement_small_equilateral_special():
    result = placement_test(triangle_from_sides(math.pi / 8, math.pi / 8, math.pi / 8))
    assert result.tag is ClassTag.SPECIAL
    assert result.certificate is not None
    assert result.margin > 0


def test_placement_long_side_non_special():
    result = placement_test(triangle_from_sides(1.2, 1.0, 0.8))
    assert result.tag is ClassTag.NON_SPECIAL
    assert result.margin < 0


def test_placement_shrunk_T0_non_special():
    # shrinking one side of the regular pi/3 triangle leaves all facet
    # angles at most pi/3 yet already breaks inscribability
    tri = triangle_from_sides(math.pi / 3, math.pi / 3, math.pi / 3 - 0.01)
    result = placement_test(tri)
    assert result.tag is ClassTag.NON_SPECIAL


def test_placement_T0_itself_indeterminate():
    result = placement_test(triangle_from_sides(math.pi / 3, math.pi / 3, math.pi / 3))
    assert result.tag is ClassTag.INDETERMINATE
    assert abs(result.margin) < 1e-12


def test_placement_labeling_and_mirror_invariance():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        tri = random_triangle(rng)
        base = placement_test(tri)
        V = tri.matrix
        for perm in permutations(range(3)):
            W = V[list(perm)]
            if np.linalg.det(W) < 0:
                relabeled = SphTriangle(W[0], W[1], W[2])  # constructor reflects by swap
            else:
                relabeled = SphTriangle(*W)
            other = placement_test(relabeled)
            assert other.tag is base.tag
            assert other.margin == pytest.approx(base.margin, abs=1e-9)
        mirror = SphTriangle(V[0] * [1, 1, -1], V[1] * [1, 1, -1], V[2] * [1, 1, -1])
        m = placement_test(mirror)
        assert m.tag is base.tag
        assert m.margin == pytest.approx(base.margin, abs=1e-9)


def test_threshold_soundness_bulk():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        s = random_small_special_sides(rng)
        assert placement_test(triangle_from_sides(*s)).tag is ClassTag.SPECIAL
    for _ in range(1000):
        s = random_large_side_sides(rng)
        assert placement_test(triangle_from_sides(*s)).tag is ClassTag.NON_SPECIAL


def _reference_labeling(V, perm):
    """One labeling placed the way placement_test did before it became a
    function of the side lengths: v1 at t1, v2 walked along t1 t2, v3
    turned by the vertex angle both ways, the better image kept."""
    t1, t2, t3 = T0_TRIANGLE.matrix
    v1, v2, v3 = V[list(perm)]
    c, b, a = arc_distance(v1, v2), arc_distance(v1, v3), arc_distance(v2, v3)
    x = (math.cos(a) - math.cos(b) * math.cos(c)) / (math.sin(b) * math.sin(c))
    theta = math.acos(min(1.0, max(-1.0, x)))
    tangent = normalize(t2 - float(t1 @ t2) * t1)
    p2 = math.cos(c) * t1 + math.sin(c) * tangent
    best = None
    for sgn in (1.0, -1.0):
        turned = math.cos(theta) * tangent + sgn * math.sin(theta) * np.cross(t1, tangent)
        p3 = math.cos(b) * t1 + math.sin(b) * turned
        margins = np.array(
            [
                math.asin(min(1.0, max(-1.0, float(normalize(np.cross(p, q)) @ p3))))
                for p, q in ((t1, p2), (p2, t3), (t3, t1))
            ]
        )
        m = min(T0_SIDE - c, float(margins.min()))
        if best is None or m > best[0]:
            best = (m, np.array([t1, p2, p3]), margins)
    return best + (bool(np.linalg.det(V[list(perm)]) < 0),)


def test_placement_matches_per_labeling_reference():
    # The criterion-5 triangles, then 2000 more in random orientations.
    rng, turns = np.random.default_rng(505), np.random.default_rng(9)
    for k in range(2600):
        tri = random_triangle(rng)
        if k >= 600:
            tri = SphTriangle(*(tri.matrix @ random_rotation_matrix(turns).T))
        got = placement_test(tri)
        results = [(p,) + _reference_labeling(tri.matrix, p) for p in permutations(range(3))]
        best = max(r[1] for r in results)
        assert abs(got.margin - best) <= 1e-14
        if best > 1e-9:
            assert got.tag is ClassTag.SPECIAL
        else:
            assert got.tag is (ClassTag.NON_SPECIAL if best < -1e-9 else ClassTag.INDETERMINATE)
        if got.tag is ClassTag.SPECIAL:
            perm, _, placed, margins, mirrored = next(r for r in results if r[1] >= best - 1e-12)
            cert = got.certificate
            assert cert.labeling == perm
            assert cert.mirrored == mirrored
            assert np.abs(cert.placed_triangle.matrix - placed).max() <= 1e-14
            assert np.abs(cert.margins - margins).max() <= 1e-14


def test_placement_certificate_geometry():
    result = placement_test(triangle_from_sides(0.45, 0.4, 0.35))
    cert = result.certificate
    P = cert.placed_triangle.matrix
    assert arc_distance(P[0], T0_TRIANGLE.matrix[0]) <= 1e-10
    assert arc_distance(P[0], P[1]) <= T0_SIDE + 1e-12
    assert np.min(cert.margins) > 0


# -- classify_trihedral ------------------------------------------------------


def test_classify_cube_corner():
    result = classify_trihedral(SolidAngle((0, 0, 0), np.eye(3)))
    assert result.tag is ClassTag.NON_SPECIAL
    assert result.margin == pytest.approx(math.pi / 3 - math.pi / 2, abs=1e-12)


def test_classify_small_angle_special_with_certificate():
    ang = SolidAngle.from_triangle(triangle_from_sides(0.3, 0.3, 0.3))
    result = classify_trihedral(ang)
    assert result.tag is ClassTag.SPECIAL
    assert result.certificate is not None


def test_classify_tetrahedron_corner_indeterminate():
    ang = SolidAngle.from_triangle(triangle_from_sides(T0_SIDE, T0_SIDE, T0_SIDE))
    assert classify_trihedral(ang).tag is ClassTag.INDETERMINATE


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_classify_equivariant_under_rigid_motion(seed):
    # The verdict moves with the angle: same tag and margin, and the
    # witness is the moved witness (the same certificate labeling).
    rng = np.random.default_rng(seed)
    ang = random_trihedral_angle(rng, apex_spread=1.0)
    R = random_rotation_matrix(rng)
    t = 10.0 * rng.normal(size=3)
    moved = SolidAngle(R @ ang.apex + t, ang.edges @ R.T)
    a, b = classify_trihedral(ang), classify_trihedral(moved)
    assert b.tag is a.tag
    assert abs(b.margin - a.margin) <= 1e-12
    if a.tag is ClassTag.SPECIAL:
        pa = construct_inscribed_octahedron(ang, a.certificate)
        pb = construct_inscribed_octahedron(moved, b.certificate)
        assert np.abs(pb.vertices() - (pa.vertices() @ R.T + t)).max() <= 1e-9 * pa.scale


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(0, 2), st.booleans())
def test_classify_invariant_under_edge_relabeling(seed, shift, reverse):
    rng = np.random.default_rng(seed)
    ang = random_trihedral_angle(rng)
    E = np.roll(ang.edges, shift, axis=0)
    other = SolidAngle(ang.apex, E[::-1] if reverse else E)
    a, b = classify_trihedral(ang), classify_trihedral(other)
    assert b.tag is a.tag
    assert abs(b.margin - a.margin) <= 1e-12


# -- construct_inscribed_octahedron -----------------------------------------


def test_construct_small_angle_on_boundary():
    ang = SolidAngle.from_triangle(triangle_from_sides(0.3, 0.3, 0.3))
    cls = classify_trihedral(ang)
    pose = construct_inscribed_octahedron(ang, cls.certificate)
    assert inscribed_in_cone_check(ang, pose, tol=1e-9)
    V = pose.vertices()
    assert np.linalg.norm(V - ang.apex, axis=1).max() == pytest.approx(1.0, abs=1e-12)


def test_construct_random_special_angles():
    rng = np.random.default_rng(13)
    for _ in range(50):
        ang = random_trihedral_angle(rng, 0.15, 0.5, apex_spread=1.0)
        cls = classify_trihedral(ang)
        if cls.tag is not ClassTag.SPECIAL:
            continue
        pose = construct_inscribed_octahedron(ang, cls.certificate)
        assert inscribed_in_cone_check(ang, pose, tol=1e-8)


def test_construct_rejects_missing_certificate():
    ang = SolidAngle((0, 0, 0), np.eye(3))
    cls = classify_trihedral(ang)
    assert cls.certificate is None
    with pytest.raises(ConstructionFailed):
        construct_inscribed_octahedron(ang, cls.certificate)


def test_construct_consistent_with_placement():
    # constructible exactly when the placement succeeds, and the direct
    # search independently agrees with the placement verdict
    from octainscribe.oracle import DirectSearchConfig, direct_angle_search

    ang = SolidAngle.from_triangle(triangle_from_sides(0.5, 0.4, 0.3))
    cls = classify_trihedral(ang)
    found = direct_angle_search(ang, DirectSearchConfig(stop_at_first=True)).poses
    assert bool(found) == (cls.tag is ClassTag.SPECIAL)
    if cls.tag is ClassTag.SPECIAL:
        pose = construct_inscribed_octahedron(ang, cls.certificate)
        assert inscribed_in_cone_check(ang, pose, tol=1e-8)
    else:
        with pytest.raises(ConstructionFailed):
            construct_inscribed_octahedron(ang, cls.certificate)


# -- fits_in_T0 --------------------------------------------------------------


def test_fits_tiny_polygon():
    c = normalize([0.2, 0.1, 1.0])
    pts = []
    for az in np.linspace(0, 2 * math.pi, 5)[:-1]:
        offset = 0.025 * np.array([math.cos(az), math.sin(az), 0.0])
        pts.append(normalize(c + offset))
    fit = fits_in_T0(SphPolygon(pts))
    assert fit.tag is FitTag.FITS
    assert fit.margin > 0
    assert fit.rotation is not None


def test_fits_octant_rejected_by_diameter():
    fit = fits_in_T0(SphPolygon([E1, E2, E3]))
    assert fit.tag is FitTag.NO_FIT


def test_fits_T0_itself_boundary():
    fit = fits_in_T0(SphPolygon(T0_TRIANGLE.matrix))
    assert fit.tag in (FitTag.INDETERMINATE, FitTag.FITS)
    assert abs(fit.margin) < 1e-6


# -- classify_general --------------------------------------------------------


def test_general_routes_trihedral():
    res = classify_general(SolidAngle((0, 0, 0), np.eye(3)))
    assert res.kind is GeneralKind.TRIHEDRAL
    assert res.trihedral.tag is ClassTag.NON_SPECIAL


def test_general_small_pyramid_apex_not_in_A0():
    r = 0.2 / math.sqrt(2)
    edges = [normalize([r, 0, 1]), normalize([0, r, 1]), normalize([-r, 0, 1]), normalize([0, -r, 1])]
    res = classify_general(SolidAngle((0, 0, 0), edges))
    assert res.kind is GeneralKind.NOT_IN_A0
    assert "necessary" in res.note


def test_general_wide_cone_in_A0():
    s = math.sin(1.0)
    edges = [
        normalize([s, 0, math.cos(1.0)]),
        normalize([0, s, math.cos(1.0)]),
        normalize([-s, 0, math.cos(1.0)]),
        normalize([0, -s, math.cos(1.0)]),
    ]
    ang = SolidAngle((0, 0, 0), edges)
    assert arc_distance(ang.edges[0], ang.edges[2]) == pytest.approx(2.0, abs=1e-12)
    res = classify_general(ang)
    assert res.kind is GeneralKind.IN_A0


# -- deformation_path --------------------------------------------------------


def test_path_single_element_when_side_already_large():
    tri = triangle_from_sides(1.2, 1.0, 0.8)
    path = deformation_path(tri, steps=50)
    assert len(path) == 1
    assert path[0] is tri


def test_path_from_shrunk_T0():
    tri = triangle_from_sides(T0_SIDE, T0_SIDE, T0_SIDE - 0.01)
    path = deformation_path(tri, steps=60)
    assert len(path) == 60
    for t in path:
        assert placement_test(t).tag is ClassTag.NON_SPECIAL
    assert max(path[-1].side_lengths()) > math.pi / 3 + 0.01


def test_path_rejects_special_input():
    with pytest.raises(NotNonSpecial):
        deformation_path(triangle_from_sides(0.3, 0.3, 0.3), steps=50)
