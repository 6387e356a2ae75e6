import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from octainscribe import angles
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
    _t0_margin_for_matrices,
    classify_general,
    classify_trihedral,
    construct_inscribed_octahedron,
    deformation_path,
    fits_in_T0,
    normalize_ordering,
    placement_test,
    triangle_from_sides,
)
from octainscribe.generators import (
    nonsimple_inscribed_cone,
    random_large_side_sides,
    random_rotation_matrix,
    random_small_special_sides,
    random_triangle,
    random_trihedral_angle,
)
from octainscribe.oracle import inscribed_in_cone_check
from octainscribe.rotations import _quats_to_matrices, quat_from_rotvec, quat_to_matrix, super_fibonacci_rotations
from octainscribe.sphere import (
    GeometryError,
    SphPolygon,
    SphTriangle,
    area,
    arc_distance,
    hemisphere_axis,
    polygon_area,
    polygon_diameter,
    vertex_angle,
)

E1, E2, E3 = np.eye(3)


def normalize(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# -- T0 ----------------------------------------------------------------------


def test_T0_constants():
    sides = T0_TRIANGLE.sides
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
    tri = SphTriangle(*ang.edges)
    assert np.linalg.det(tri.matrix) > 0


def test_solid_angle_rejects_flat_and_nonsalient():
    with pytest.raises(InvalidSolidAngle):
        SolidAngle((0, 0, 0), [E1, E2, normalize([1, 1, 0])])
    with pytest.raises(InvalidSolidAngle):
        SolidAngle((0, 0, 0), [E1, E2, -E1, -E2])  # closed halfplane fan
    with pytest.raises(InvalidSolidAngle):
        SolidAngle((0, 0, 0), [E1, E2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solid_angle_rejects_non_finite_edge_or_apex(bad):
    with pytest.raises(GeometryError, match="finite"):
        SolidAngle((0, 0, 0), [E1, [bad, 1.0, 0.0], E3])
    with pytest.raises(InvalidSolidAngle, match="finite"):
        SolidAngle((0, bad, 0), [E1, E2, E3])


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
    assert np.all(ang.edges @ hemisphere_axis(ang.polygon.normals) > 0)
    for i in range(3):
        # Outward facet normals, although the polygon's hemisphere axis
        # lies far outside so narrow a cone.
        dots = ang.edges @ ang.facet_normal(i)
        assert dots[(i + 2) % 3] < 0
        assert np.all(dots < 1e-15)


@pytest.mark.parametrize("h", [1e-5, 1e-6, 1e-7])
def test_narrow_trihedral_angle_classifies_or_is_rejected(h):
    # The placed triangle of the certificate is as narrow as the angle; its
    # coplanarity test must not reject it for being small.
    try:
        ang = SolidAngle((0, 0, 0), [(h, 0, 1), (0, h, 1), (-h, -h, 1)])
    except InvalidSolidAngle:
        return
    cls = classify_trihedral(ang)
    assert cls.tag is ClassTag.SPECIAL and cls.margin > 0
    assert cls.certificate is not None and np.min(cls.certificate.margins) > 0


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
    assert np.all(ang.edges @ hemisphere_axis(ang.polygon.normals) > 0)
    assert _same_cycle(SolidAngle((0, 0, 0), edges[::-1]).edges, ang.edges)


def test_solid_angle_construction_calls_no_hemisphere_axis(monkeypatch):
    from octainscribe import angles, sphere

    calls = []
    real = sphere.hemisphere_axis

    def counting(normals):
        calls.append(len(normals))
        return real(normals)

    # Both modules bind the name; count a call through either.  Construction
    # validates salience through the polygon's convexity, with no axis.
    monkeypatch.setattr(sphere, "hemisphere_axis", counting)
    monkeypatch.setattr(angles, "hemisphere_axis", counting)
    flat = [normalize([1, 0, 0.01]), normalize([-0.5, 0.87, 0.01]), normalize([-0.5, -0.87, 0.01])]
    for edges in ([E1, E3, E2], [E1, normalize([1, 1, -0.2]), E2, E3], flat):
        calls.clear()
        ang = SolidAngle((0, 0, 0), edges)
        assert calls == []
        assert np.all(ang.edges @ real(ang.polygon.normals) > 0)


def test_cube_corner_edges_span_a_right_triangle():
    ang = SolidAngle((0, 0, 0), np.eye(3))
    tri = SphTriangle(*ang.edges)
    assert np.allclose(sorted(tri.sides), [math.pi / 2] * 3, atol=1e-12)
    assert np.allclose(ang.facet_angles(), [math.pi / 2] * 3, atol=1e-15)


def test_classify_trihedral_requires_trihedral():
    ang = SolidAngle((0, 0, 0), [E1, normalize([1, 1, -0.2]), E2, E3])
    assert ang.n_edges == 4
    with pytest.raises(NotTrihedral):
        classify_trihedral(ang)


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
    s12, s13, s23 = out.sides
    assert s12 >= s13 >= s23
    assert np.allclose(sorted(out.sides), sorted(tri.sides), atol=1e-12)
    assert area(out) == pytest.approx(area(tri), abs=1e-12)


def test_normalize_ordering_equilateral_any_labeling():
    tri = triangle_from_sides(0.5, 0.5, 0.5)
    out = normalize_ordering(tri)
    assert np.allclose(sorted(out.sides), sorted(tri.sides), atol=1e-12)


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


@pytest.mark.parametrize("h", [1e-5, 1e-6, 1e-7, 1e-8])
def test_construct_narrow_special_angle(h):
    # The placed rotation's rounding has a lever arm of about 1/h; the
    # witness must still meet the criterion-4 plane bound of its own scale.
    ang = SolidAngle((0, 0, 0), [(h, 0, 1), (0, h, 1), (-h, -h, 1)])
    cls = classify_trihedral(ang)
    assert cls.tag is ClassTag.SPECIAL
    pose = construct_inscribed_octahedron(ang, cls.certificate)
    assert inscribed_in_cone_check(ang, pose, tol=1e-8)
    normals = np.array([ang.facet_normal(i) for i in range(3)])
    plane_residual = np.abs(pose.vertices() @ normals.T).min(axis=1).max()
    assert plane_residual <= 1e-8 * pose.scale


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


def _reference_fits_in_T0(poly, tol=1e-9):
    """The former search, kept as a reference: score a 10 000-rotation
    super-Fibonacci grid, then refine its 12 best rotations by
    Nelder-Mead.  Its NO_FIT is not certified."""
    total_area = polygon_area(poly)
    if total_area > T0_AREA + 1e-12:
        return FitTag.NO_FIT
    if polygon_diameter(poly) > T0_SIDE + tol:
        return FitTag.NO_FIT
    V = poly.matrix
    quats = super_fibonacci_rotations(10_000)
    margins = _t0_margin_for_matrices(_quats_to_matrices(quats), V)
    best = -math.inf
    for idx in np.argsort(-margins, kind="stable")[:12]:
        q0 = quats[idx]

        def neg_margin(w, q0=q0):
            m = quat_to_matrix(q0) @ quat_to_matrix(np.concatenate([[1.0], 0.5 * w]))
            return -float(_t0_margin_for_matrices(m[None], V)[0])

        res = minimize(
            neg_margin,
            np.zeros(3),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400},
        )
        best = max(best, -float(res.fun))
        if best > tol:
            return FitTag.FITS
    return FitTag.NO_FIT if best < -tol else FitTag.INDETERMINATE


def _random_quadrilateral(rng, lo, hi):
    """Four vertices at random azimuths and at distances in [lo, hi] from
    a random centre, redrawn until the polygon is strictly convex."""
    while True:
        c = normalize(rng.normal(size=3))
        u = normalize(np.cross(c, rng.normal(size=3)))
        v = np.cross(c, u)
        az = np.sort(rng.uniform(0, 2 * math.pi, 4))
        r = rng.uniform(lo, hi, 4)
        P = np.cos(r)[:, None] * c + np.sin(r)[:, None] * (
            np.cos(az)[:, None] * u + np.sin(az)[:, None] * v
        )
        try:
            return SphPolygon(P)
        except GeometryError:
            pass


def _assert_witness_rechecks(poly, fit):
    m = _t0_margin_for_matrices(quat_to_matrix(fit.rotation)[None], poly.matrix)[0]
    assert m == pytest.approx(fit.margin, abs=1e-12)
    assert m > 1e-9


def _assert_matches_reference(polys):
    """Equal tags, except that a FITS whose witness re-checks overrides a
    reference NO_FIT: the witness proves that the reference missed a fit.
    Returns the number of NO_FITs the search decided."""
    searched_no_fit = 0
    for poly in polys:
        fit = fits_in_T0(poly)
        if fit.tag is FitTag.FITS:
            _assert_witness_rechecks(poly, fit)
            assert _reference_fits_in_T0(poly) in (FitTag.FITS, FitTag.NO_FIT)
        else:
            assert fit.tag is _reference_fits_in_T0(poly)
        searched_no_fit += fit.tag is FitTag.NO_FIT and fit.rotation is not None
    return searched_no_fit


def test_fits_matches_reference_on_criterion_8_cones():
    rng = np.random.default_rng(808)
    cones = [nonsimple_inscribed_cone(rng)[0].polygon for _ in range(50)]
    assert _assert_matches_reference(cones) == 0
    assert all(fits_in_T0(p).tag is FitTag.FITS for p in cones)


def test_fits_matches_reference_on_quadrilaterals():
    # Vertices 0.50-0.52 rad from a centre: the diameter prefilter never
    # fires, and about a third of the family cannot be placed.
    rng = np.random.default_rng(31)
    polys = [_random_quadrilateral(rng, 0.5, 0.52) for _ in range(30)]
    assert _assert_matches_reference(polys) >= 10


def test_fits_finds_the_fit_the_reference_missed():
    # Grid plus Nelder-Mead ends at margin -1.7e-4 and reports NO_FIT; the
    # cell search finds a rotation with margin 4.4e-5.
    poly = SphPolygon(
        [
            [0.3419402851768703, 0.9278394825879674, 0.1489655528102173],
            [-0.23535372190165743, 0.7832073794062819, 0.5754952879308238],
            [-0.06652749299452772, 0.6330137899317675, 0.7712766264007249],
            [0.5806272078735764, 0.6403984076616902, 0.5027543385604011],
        ]
    )
    assert _reference_fits_in_T0(poly) is FitTag.NO_FIT
    fit = fits_in_T0(poly)
    assert fit.tag is FitTag.FITS
    _assert_witness_rechecks(poly, fit)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    st.integers(-8, 0),
    st.integers(0, 2**32 - 1),
)
def test_t0_margin_is_1_lipschitz_in_rotation_vector(a, d, exponent, seed):
    # The bound behind every discarded cell of fits_in_T0.
    poly = _random_quadrilateral(np.random.default_rng(seed), 0.05, 0.6)
    W = np.array([a, np.add(a, np.multiply(d, 10.0**exponent))])
    m = _t0_margin_for_matrices(_quats_to_matrices(quat_from_rotvec(W)), poly.matrix)
    assert abs(m[0] - m[1]) <= np.linalg.norm(W[0] - W[1]) + 1e-12


def test_fits_tiny_polygon():
    c = normalize([0.2, 0.1, 1.0])
    pts = []
    for az in np.linspace(0, 2 * math.pi, 5)[:-1]:
        offset = 0.025 * np.array([math.cos(az), math.sin(az), 0.0])
        pts.append(normalize(c + offset))
    poly = SphPolygon(pts)
    fit = fits_in_T0(poly)
    assert fit.tag is FitTag.FITS
    _assert_witness_rechecks(poly, fit)


def test_fits_octant_rejected_by_diameter():
    fit = fits_in_T0(SphPolygon([E1, E2, E3]))
    assert fit.tag is FitTag.NO_FIT


def test_fits_T0_itself_boundary(monkeypatch):
    evaluated = []
    margins = angles._t0_margin_for_matrices

    def counting(mats, V):
        evaluated.append(len(mats))
        return margins(mats, V)

    monkeypatch.setattr(angles, "_t0_margin_for_matrices", counting)
    fit = fits_in_T0(SphPolygon(T0_TRIANGLE.matrix))
    assert fit.tag is not FitTag.NO_FIT
    assert abs(fit.margin) < 1e-6
    # 5216 cells over 24 levels when measured.
    assert sum(evaluated) <= 6000


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
    assert max(path[-1].sides) > math.pi / 3 + 0.01


def test_path_rejects_special_input():
    with pytest.raises(NotNonSpecial):
        deformation_path(triangle_from_sides(0.3, 0.3, 0.3), steps=50)
