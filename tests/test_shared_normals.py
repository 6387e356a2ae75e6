"""Side normals are computed once, in the validation pass of `SphPolygon`,
and read by `SolidAngle.facet_normal`, the witness construction and
`classify_trihedral`; side lengths are kept from the validation passes of
`SphTriangle` and `SphPolygon`.  Each consumer is checked against the
formula it used to compute for itself, kept here as a test-only
reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octainscribe import angles, sphere
from octainscribe.angles import (
    ClassTag,
    SolidAngle,
    T0_SIDE,
    classify_trihedral,
    construct_inscribed_octahedron,
    placement_test,
)
from octainscribe.generators import random_rotation_matrix, random_trihedral_angle
from octainscribe.sphere import (
    _PAIRS,
    DEFAULT_TOL,
    SphPolygon,
    SphTriangle,
    _arcs,
    _as_unit,
    _next_rows,
    _unit_rows,
)


def ref_normal(a, b, toward):
    """Unit normal of the plane through a and b, signed to have positive
    dot with `toward`."""
    n = _as_unit(np.cross(a, b))
    return -n if float(n @ toward) < 0 else n


def random_cone(rng, n):
    """n edges through an ellipse in the plane z = 1, counterclockwise seen
    from +z, then rotated: a strictly convex cone, often wide and flat."""
    t = (np.arange(n) + rng.uniform(0, 0.5, n)) * (2 * math.pi / n)
    a, b = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 0)
    c = rng.uniform(-1, 1, 2) * min(a, b)
    pts = np.column_stack([c[0] + a * np.cos(t), c[1] + b * np.sin(t), np.ones(n)])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts @ random_rotation_matrix(rng).T


CONES = [random_cone(np.random.default_rng(100 + n), n) for n in range(3, 9) for _ in range(40)]


@pytest.mark.parametrize("orientation", ["ccw", "cw"])
def test_polygon_normals_match_cross_products(orientation):
    for pts in CONES:
        poly = SphPolygon(pts if orientation == "ccw" else pts[::-1])
        E = poly.matrix
        inside = E.sum(axis=0)  # has positive dot with every inward side normal
        ref = np.array([ref_normal(E[i], E[(i + 1) % len(E)], inside) for i in range(len(E))])
        assert np.abs(poly.normals - ref).max() <= 1e-15
        with pytest.raises(ValueError):
            poly.normals[0, 0] = 0.0


@pytest.mark.parametrize("orientation", ["ccw", "cw"])
def test_facet_normals_match_cross_products(orientation):
    for pts in CONES:
        ang = SolidAngle((1.0, -2.0, 0.5), pts if orientation == "ccw" else pts[::-1])
        E = ang.edges
        for i in range(len(E)):
            ref = -ref_normal(E[i], E[(i + 1) % len(E)], ang.axis)
            assert np.abs(ang.facet_normal(i) - ref).max() <= 1e-15


def test_construction_reads_the_labelled_facet_normals(monkeypatch):
    read = []
    real = SolidAngle.facet_normal

    def recording(self, i):
        read.append(real(self, i))
        return read[-1]

    monkeypatch.setattr(SolidAngle, "facet_normal", recording)
    rng = np.random.default_rng(5)
    labelings, built = set(), 0
    while len(labelings) < 6 or built < 100:
        ang = random_trihedral_angle(rng)
        cls = classify_trihedral(ang)
        if cls.tag is not ClassTag.SPECIAL:
            continue
        read.clear()
        construct_inscribed_octahedron(ang, cls.certificate)
        W = ang.edges[list(cls.certificate.labeling)]
        # Facets (v1 v2), (v1 v3), (v2 v3), outward: signed away from the
        # labelled edge each facet does not touch.
        ref = [-ref_normal(W[0], W[1], W[2]), -ref_normal(W[0], W[2], W[1]), -ref_normal(W[1], W[2], W[0])]
        assert len(read) == 3
        assert np.abs(np.array(read) - np.array(ref)).max() <= 1e-15
        labelings.add(cls.certificate.labeling)
        built += 1


def reference_classification(angle):
    """The trihedral classifier on the rebuilt triangle: the threshold fast
    path on its side lengths, else the placement test."""
    tri = SphTriangle(*angle.edges)
    top = float(tri.sides.max())
    if top > T0_SIDE + DEFAULT_TOL:
        return ClassTag.NON_SPECIAL, None, T0_SIDE - top
    cls = placement_test(tri)
    return cls.tag, cls.certificate.labeling if cls.certificate else None, cls.margin


def test_classifier_reads_sides_from_the_angle():
    rng = np.random.default_rng(9)
    inputs = [SolidAngle((0, 0, 0), np.eye(3))] + [random_trihedral_angle(rng) for _ in range(2000)]
    placement_path = 0
    for ang in inputs:
        cls = classify_trihedral(ang)
        tag, labeling, margin = reference_classification(ang)
        assert cls.tag is tag
        assert (cls.certificate.labeling if cls.certificate else None) == labeling
        assert abs(cls.margin - margin) <= 1e-14
        sides = ang.facet_angles()
        if sides.max() <= T0_SIDE + DEFAULT_TOL:
            placement_path += 1
            direct = placement_test(SphTriangle(*ang.edges))
            assert direct.tag is cls.tag and abs(direct.margin - cls.margin) <= 1e-14
    assert placement_path > 500


def test_classifier_builds_no_triangle_from_the_edges(monkeypatch):
    built = []

    def record(*vertices):
        built.append(np.array(vertices))
        return SphTriangle(*vertices)

    monkeypatch.setattr(angles, "SphTriangle", record)
    rng = np.random.default_rng(3)
    for _ in range(50):
        ang = random_trihedral_angle(rng)
        classify_trihedral(ang)
        assert not any(np.array_equal(tri, ang.edges) for tri in built)


def test_solid_angle_calls_cross_at_most_twice(monkeypatch):
    # The cross-product kernel is `sphere._cross`; count it in every module
    # that binds it.
    calls = []
    real = sphere._cross

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (sphere, angles):
        assert module._cross is real
        monkeypatch.setattr(module, "_cross", counting)
    for pts in CONES[::10]:
        calls.clear()
        SolidAngle((0, 0, 0), pts[::-1])
        assert 0 < len(calls) <= 2


def test_thin_cones_keep_their_cycle():
    # Edges within 1e-8 of the axis: the azimuth frame must stay orthogonal
    # to the axis to rounding, or the sort scrambles the cycle and a valid
    # cone is rejected as not convex.
    rng = np.random.default_rng(4)
    kept = 0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        t = np.sort(rng.uniform(0, 2 * math.pi, n))
        E = np.column_stack([1e-8 * np.cos(t), 1e-8 * np.sin(t), np.ones(n)]) @ random_rotation_matrix(rng).T
        try:
            # From the raw edges, as SolidAngle builds its polygon.
            cycle = SphPolygon(E).matrix
        except ValueError:
            continue  # not strictly convex at DEFAULT_TOL
        shuffled = np.concatenate([[0], rng.permutation(np.arange(1, n))])
        assert np.allclose(SolidAngle((0, 0, 0), E[shuffled]).edges, cycle, rtol=0, atol=1e-15)
        kept += 1
    assert kept > 50


def test_solid_angle_normalizes_its_edges_once():
    # A unit edge normalized again moves in its last bits, and for cones this
    # thin that can move a convexity dot across DEFAULT_TOL.  SolidAngle must
    # accept exactly the cones its polygon accepts from the raw edges.
    rng = np.random.default_rng(4)
    accepted = renormalized_rejects = 0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        t = np.sort(rng.uniform(0, 2 * math.pi, n))
        E = np.column_stack([1e-8 * np.cos(t), 1e-8 * np.sin(t), np.ones(n)]) @ random_rotation_matrix(rng).T
        try:
            cycle = SphPolygon(E).matrix
        except ValueError:
            with pytest.raises(ValueError):
                SolidAngle((0, 0, 0), E)
            continue
        assert np.array_equal(SolidAngle((0, 0, 0), E).edges, cycle)
        accepted += 1
        try:
            SphPolygon(_unit_rows(E))
        except ValueError:
            renormalized_rejects += 1
    assert accepted > 50 and renormalized_rejects > 0


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=8), st.booleans())
def test_kept_side_lengths_have_the_bits_of_arcs(seed, n, clockwise):
    # A clockwise triangle takes the vertex swap, a clockwise polygon the
    # reversal; the kept sides must follow either one to the bit.
    pts = random_cone(np.random.default_rng(seed), n)
    if clockwise:
        pts = pts[::-1]
    if n == 3:
        tri = SphTriangle(*pts)
        m = tri.matrix
        assert np.array_equal(m, _unit_rows(pts)[[0, 2, 1]] if clockwise else _unit_rows(pts))
        assert tri.sides.tobytes() == _arcs(m[_PAIRS[0]], m[_PAIRS[1]]).tobytes()
    poly = SphPolygon(pts)
    assert np.array_equal(poly.matrix[0], _unit_rows(pts)[-1 if clockwise else 0])
    assert poly.sides.tobytes() == _arcs(poly.matrix, _next_rows(poly.matrix)).tobytes()
    ang = SolidAngle((0, 0, 0), pts)
    assert ang.facet_angles().tobytes() == _arcs(ang.edges, _next_rows(ang.edges)).tobytes()


def test_side_lengths_are_read_not_computed(monkeypatch):
    tri = SphTriangle(*CONES[0][::-1])
    ang = SolidAngle((0, 0, 0), CONES[-1])
    ref_tri, ref_ang = tri.sides.copy(), ang.facet_angles().copy()

    def refuse(*args):
        raise AssertionError("side lengths computed again")

    monkeypatch.setattr(sphere, "_arcs", refuse)
    monkeypatch.setattr(sphere, "_cross", refuse)
    for got, ref in ((tri.sides, ref_tri), (ang.facet_angles(), ref_ang)):
        assert np.array_equal(got, ref)
        with pytest.raises(ValueError):
            got[0] = 0.0
