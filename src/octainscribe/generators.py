"""Seeded random instance generators for tests and experiments: spherical
triangles by class, trihedral angles in general position, simple random
polytopes, and non-simple cones that carry a known inscribed octahedron.
"""

from __future__ import annotations

import math

import numpy as np

from .angles import (
    ClassTag,
    SolidAngle,
    classify_trihedral,
    construct_inscribed_octahedron,
    placement_test,
    triangle_from_sides,
)
from .oracle import inscribed_in_cone_check
from .polytope import ConvexPolytope, Degenerate, build_from_halfspaces, is_simple
from .rotations import quat_normalize, quat_to_matrix
from .sphere import SphTriangle, _as_unit, _rotate_about

__all__ = [
    "random_rotation_matrix",
    "random_triangle",
    "random_trihedral_angle",
    "random_small_special_sides",
    "random_large_side_sides",
    "random_nonspecial_small_triangle",
    "random_simple_polytope",
    "nonsimple_inscribed_cone",
]


def random_rotation_matrix(rng) -> np.ndarray:
    return quat_to_matrix(quat_normalize(rng.normal(size=4)))


def _valid_sides(s) -> bool:
    a, b, c = sorted(s)
    return a > 1e-3 and a + b > c + 1e-3 and sum(s) < 2 * math.pi - 1e-3 and c < math.pi - 1e-3


def random_triangle(rng, lo: float = 0.05, hi: float = 1.25) -> SphTriangle:
    """Uniform side lengths in [lo, hi], rejected until they satisfy the
    spherical triangle inequalities."""
    while True:
        s = rng.uniform(lo, hi, 3)
        if _valid_sides(s):
            return triangle_from_sides(*s)


def random_trihedral_angle(rng, lo: float = 0.05, hi: float = 1.25, apex_spread: float = 0.0):
    """Random triangle placed in general position (random rotation and,
    optionally, a random apex)."""
    tri = random_triangle(rng, lo, hi)
    R = random_rotation_matrix(rng)
    apex = apex_spread * rng.normal(size=3)
    return SolidAngle(apex, tri.matrix @ R.T)


def random_small_special_sides(rng) -> np.ndarray:
    """All facet angles below pi/6 - 1e-3 (guaranteed special)."""
    while True:
        s = rng.uniform(0.12, math.pi / 6.0 - 1e-3, 3)
        if _valid_sides(s):
            return s


def random_large_side_sides(rng) -> np.ndarray:
    """One facet angle above pi/3 + 1e-3 (guaranteed non-special)."""
    while True:
        big = rng.uniform(math.pi / 3.0 + 1e-3, 1.6)
        rest = rng.uniform(0.3, 1.5, 2)
        s = np.array([big, rest[0], rest[1]])
        rng.shuffle(s)
        if _valid_sides(s) and s.max() > math.pi / 3.0 + 1e-3:
            return s


def random_nonspecial_small_triangle(rng) -> SphTriangle:
    """A non-special triangle with every side below pi/3 (the regime of
    the connectedness argument), classification margin below -1e-6."""
    while True:
        s = rng.uniform(0.35, math.pi / 3.0 - 1e-4, 3)
        if not _valid_sides(s):
            continue
        tri = triangle_from_sides(*s)
        cls = placement_test(tri)
        if cls.tag is ClassTag.NON_SPECIAL and cls.margin < -1e-6:
            return tri


def random_simple_polytope(rng, n_facets=None) -> ConvexPolytope:
    """Intersection of random halfspaces around the unit ball, rejected
    until bounded, valid and simple, in at most 200 draws."""
    for _ in range(200):
        m = int(n_facets) if n_facets is not None else int(rng.integers(6, 13))
        normals = rng.normal(size=(m, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = 1.0 + 0.3 * rng.random(m)
        try:
            poly = build_from_halfspaces(normals, offsets)
        except Degenerate:
            continue
        simple, _ = is_simple(poly)
        if simple:
            return poly
    raise RuntimeError("no simple polytope in 200 draws")


# ---------------------------------------------------------------------------
# Non-simple cones with a known inscribed octahedron.


def _clip_spherical_polygon(E, m, tol=1e-12):
    """Intersect the convex spherical polygon with the hemisphere
    m . x <= 0; returns the new vertex cycle."""
    out = []
    n = len(E)
    vals = E @ m
    for i in range(n):
        a, b = E[i], E[(i + 1) % n]
        fa, fb = vals[i], vals[(i + 1) % n]
        if fa <= tol:
            out.append(a)
        if (fa < -tol < fb) or (fa > tol > fb):
            tan_ab = _as_unit(b - float(np.dot(a, b)) * a)
            # the two circle/plane roots differ by pi; the minor arc is
            # shorter than pi, so reducing mod pi picks the right one
            theta = math.atan2(-fa, float(np.dot(m, tan_ab))) % math.pi
            out.append(math.cos(theta) * a + math.sin(theta) * tan_ab)
    return np.array(out)


def nonsimple_inscribed_cone(rng):
    """A solid angle with four edges whose boundary carries a known
    inscribed regular octahedron.

    Built by taking a small special trihedral angle with its witness
    octahedron and slicing the cone with an extra facet plane through the
    ray of the single-vertex facet: all six octahedron vertices stay on
    the (now four-facet) boundary, the hinge vertex landing on the new
    cone edge.  Returns (SolidAngle with 4 edges, OctahedronPose) from at
    most 60 draws of a small special triangle.
    """
    for _ in range(60):
        sides = random_small_special_sides(rng)
        tri = triangle_from_sides(*sides)
        angle = SolidAngle.from_triangle(tri)
        cls = classify_trihedral(angle)
        if cls.tag is not ClassTag.SPECIAL:
            continue
        pose = construct_inscribed_octahedron(angle, cls.certificate)
        V = pose.vertices() - angle.apex

        counts, members = _facet_counts(angle, V)
        single = [f for f, c in enumerate(counts) if c == 1]
        if not single:
            continue
        f3 = single[0]
        x_c = V[members[f3][0]]
        y = _as_unit(x_c)
        n3 = angle.facet_normal(f3)

        for delta in (0.10, -0.10, 0.05, -0.05, 0.18, -0.18):
            m = _rotate_about(y, n3, delta)
            vals = V @ m
            others = np.array([v for j, v in enumerate(vals) if j != members[f3][0]])
            if others.max() > -1e-9 or abs(vals[members[f3][0]]) > 1e-9:
                continue
            new_edges = _clip_spherical_polygon(angle.edges, m)
            if len(new_edges) != 4:
                continue
            try:
                angle4 = SolidAngle(angle.apex, new_edges)
            except Exception:
                continue
            if angle4.n_edges == 4 and inscribed_in_cone_check(angle4, pose, tol=1e-8):
                return angle4, pose
    raise RuntimeError("no non-simple inscribed cone in 60 draws")


def _facet_counts(angle: SolidAngle, V):
    """How many of the given apex-relative points lie on each facet
    sector (strictly interior in the sector, tolerant on the plane)."""
    n = angle.n_edges
    counts = [0] * n
    members = [[] for _ in range(n)]
    for j, x in enumerate(V):
        lim = 1e-8 * max(1.0, float(np.linalg.norm(x)))
        for i in range(n):
            ea, eb = angle.edges[i], angle.edges[(i + 1) % n]
            nrm = angle.facet_normal(i)
            alpha, beta, gamma = np.linalg.solve(np.column_stack([ea, eb, nrm]), x)
            if abs(gamma) <= lim and alpha >= -lim and beta >= -lim:
                counts[i] += 1
                members[i].append(j)
    return counts, members
