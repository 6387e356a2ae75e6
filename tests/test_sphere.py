import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octainscribe.sphere import (
    DegenerateTriangle,
    GeometryError,
    InvalidPolygon,
    SphPolygon,
    SphTriangle,
    arc_distance,
    area,
    hemisphere_axis,
    polygon_area,
    polygon_diameter,
    vertex_angle,
)

E1, E2, E3 = np.eye(3)


def normalize(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_units(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_triangle(rng):
    while True:
        try:
            return SphTriangle(*random_units(rng, 3))
        except DegenerateTriangle:
            continue


# -- arc_distance -----------------------------------------------------------


def test_arc_distance_identity():
    assert arc_distance(E1, E1) == 0.0


def test_arc_distance_antipodal():
    assert arc_distance(E1, -E1) == pytest.approx(math.pi, abs=1e-15)


def test_arc_distance_orthogonal():
    assert arc_distance(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_arc_distance_small_angles_stable():
    # arccos of the dot product loses half the digits here; atan2 must not
    p = normalize([1.0, 1e-9, 0.0])
    assert arc_distance(E1, p) == pytest.approx(1e-9, rel=1e-6)


def test_arc_distance_triangle_inequality_bulk():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pts = random_units(rng, 300)
        a, b, c = pts[:100], pts[100:200], pts[200:]
        for i in range(100):
            ab = arc_distance(a[i], b[i])
            bc = arc_distance(b[i], c[i])
            ac = arc_distance(a[i], c[i])
            assert ac <= ab + bc + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_arc_distance_symmetric(seed):
    rng = np.random.default_rng(seed)
    p, q = random_units(rng, 2)
    assert arc_distance(p, q) == pytest.approx(arc_distance(q, p), abs=1e-15)


# -- vertex_angle and area --------------------------------------------------


def test_octant_angles_and_area():
    tri = SphTriangle(E1, E2, E3)
    for i in range(3):
        assert vertex_angle(tri, i) == pytest.approx(math.pi / 2, abs=1e-14)
    assert area(tri) == pytest.approx(math.pi / 2, abs=1e-14)


def test_equilateral_pi3_vertex_angle():
    # independent oracle: spherical law of cosines at side a = pi/3 gives
    # cos A = (cos a - cos^2 a) / sin^2 a = 1/3
    expected = math.acos((math.cos(math.pi / 3) - math.cos(math.pi / 3) ** 2)
                         / math.sin(math.pi / 3) ** 2)
    assert expected == pytest.approx(math.acos(1.0 / 3.0), abs=1e-15)
    from octainscribe.angles import triangle_from_sides

    tri = triangle_from_sides(math.pi / 3, math.pi / 3, math.pi / 3)
    for i in range(3):
        assert vertex_angle(tri, i) == pytest.approx(expected, abs=1e-12)


def test_equilateral_planar_limit():
    from octainscribe.angles import triangle_from_sides

    tri = triangle_from_sides(1e-4, 1e-4, 1e-4)
    assert vertex_angle(tri, 0) == pytest.approx(math.pi / 3, abs=1e-8)


def test_area_T0_closed_form():
    from octainscribe.angles import triangle_from_sides

    tri = triangle_from_sides(math.pi / 3, math.pi / 3, math.pi / 3)
    assert area(tri) == pytest.approx(3 * math.acos(1.0 / 3.0) - math.pi, abs=1e-12)


def test_area_matches_lhuilier_oracle():
    # independent route: l'Huilier's formula from the side lengths alone
    def lhuilier(tri):
        a, b, c = tri.sides
        s = 0.5 * (a + b + c)
        prod = max(
            0.0,
            math.tan(0.5 * s)
            * math.tan(0.5 * (s - a))
            * math.tan(0.5 * (s - b))
            * math.tan(0.5 * (s - c)),
        )
        return 4.0 * math.atan(math.sqrt(prod))

    rng = np.random.default_rng(4)
    for _ in range(2000):
        tri = random_triangle(rng)
        if max(tri.sides) > 2.8:  # keep l'Huilier in its stable range
            continue
        assert area(tri) == pytest.approx(lhuilier(tri), abs=1e-9)


def test_area_near_degenerate_sliver_nonnegative():
    tri = SphTriangle(E1, normalize([1, 2e-2, 0]), normalize([1, 1e-2, 2e-5]))
    a = area(tri)
    assert 0.0 <= a <= 1e-6


def test_area_rotation_invariant_and_girard_consistent():
    rng = np.random.default_rng(1)
    for k in range(10_000):
        tri = random_triangle(rng)
        excess = sum(vertex_angle(tri, i) for i in range(3)) - math.pi
        a = area(tri)
        assert a == pytest.approx(excess, abs=1e-10)
        assert 0.0 < a < 2 * math.pi
        if k % 5 == 0:
            R = random_rotation(rng)
            rtri = SphTriangle(*(tri.matrix @ R.T))
            assert area(rtri) == pytest.approx(a, abs=1e-12)


def random_convex_cycle(rng, n):
    """n points on an ellipse in the plane z = 1, counterclockwise seen from
    +z, then rotated: a strictly convex cycle, often a wide, flat,
    off-centre cone whose vertex mean is not a hemisphere axis."""
    t = (np.arange(n) + rng.uniform(0, 0.5, n)) * (2 * math.pi / n)
    a, b = 10 ** rng.uniform(0, 2), 10 ** rng.uniform(-1, 0)
    c = rng.uniform(-2, 2, 2)
    pts = np.column_stack([c[0] + a * np.cos(t), c[1] + b * np.sin(t), np.ones(n)])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts @ random_rotation(rng).T


def test_polygon_axis_is_closed_form(no_lp):
    # Strict convexity alone certifies salience: the axis is the sum of the
    # side normals, with no LP, and either orientation gives the same cycle.
    rng = np.random.default_rng(11)
    lune = np.array([normalize(v) for v in ([1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1])])
    cycles = [lune] + [random_convex_cycle(rng, n) for n in range(3, 9) for _ in range(50)]
    for k, pts in enumerate(cycles):
        fwd, rev = SphPolygon(pts), SphPolygon(pts[::-1])
        for poly in (fwd, rev):
            assert np.all(poly.matrix @ hemisphere_axis(poly.normals) > 0)
        assert np.array_equal(rev.matrix, fwd.matrix)
        if k > 0:  # random cycles are generated counterclockwise
            assert np.allclose(fwd.matrix, pts, atol=1e-15)


def test_polygon_rejects_nonconvex():
    pts = [E1, normalize([1, 1, 0]), normalize([1, 0.1, 0.05]), normalize([1, 0, 1])]
    with pytest.raises(InvalidPolygon):
        SphPolygon(pts)


def test_polygon_area_and_diameter():
    tri_poly = SphPolygon([E1, E2, E3])
    assert polygon_area(tri_poly) == pytest.approx(math.pi / 2, abs=1e-12)
    assert polygon_diameter(tri_poly) == pytest.approx(math.pi / 2, abs=1e-12)


# -- constructors and invariants --------------------------------------------


def test_matrix_rows_are_unit_and_read_only():
    tri = SphTriangle([3.0, 4.0, 0.0], [0.0, 0.0, 2.0], [0.0, 5.0, 0.0])
    poly = SphPolygon([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    for m in (tri.matrix, poly.matrix):
        assert m.shape == (3, 3)
        assert np.allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-15)
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    assert np.allclose(tri.matrix[0], [0.6, 0.8, 0.0], atol=1e-15)


def test_triangle_rejects_degenerate():
    with pytest.raises(DegenerateTriangle):
        SphTriangle(E1, E1, E2)
    with pytest.raises(DegenerateTriangle):
        SphTriangle(E1, -E1, E2)
    with pytest.raises(DegenerateTriangle):
        SphTriangle(E1, E2, normalize([1, 1, 0]))  # coplanar with center


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_triangle_and_polygon_reject_non_finite_rows(bad):
    # NaN compares False everywhere, so it used to pass every check.
    row = np.array([1.0, bad, 0.2])
    with pytest.raises(GeometryError, match="finite"):
        SphTriangle(row, E2, E3)
    with pytest.raises(GeometryError, match="finite"):
        SphPolygon([E1, E2, row, normalize([1, 1, 1])])


@pytest.mark.parametrize("size", [1.0, 1e-3, 1e-7])
def test_triangle_coplanarity_test_is_scale_free(size):
    # Points (x, y, 1) of one shape at every size: accepted, oriented the
    # same way; on the line y = 0 they lie on one great circle.
    rot = random_rotation(np.random.default_rng(7))
    shape = size * np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    pts = np.column_stack([shape, np.ones(3)]) @ rot.T
    tri = SphTriangle(*pts)  # counterclockwise seen from outside: no swap
    assert np.allclose(tri.matrix, pts / np.linalg.norm(pts, axis=1, keepdims=True), rtol=0, atol=1e-15)
    line = size * np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.0]])
    with pytest.raises(DegenerateTriangle):
        SphTriangle(*np.column_stack([line, np.ones(3)]))


def test_triangle_orientation_fixed():
    t1 = SphTriangle(E1, E2, E3)
    t2 = SphTriangle(E1, E3, E2)  # negative orientation, constructor swaps
    assert np.linalg.det(t1.matrix) > 0
    assert np.linalg.det(t2.matrix) > 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_triangle_sides_below_pi(seed):
    rng = np.random.default_rng(seed)
    tri = random_triangle(rng)
    assert all(0 < s < math.pi for s in tri.sides)
