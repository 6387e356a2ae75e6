"""Spherical trigonometry kernel: points, geodesic triangles and convex
polygons on the unit sphere, with tolerance-aware containment predicates.

All angles are radians, all vectors are numpy arrays of shape (3,).
Distances use the atan2 form and areas use l'Huilier's formula, both of
which stay accurate for the small triangles this toolkit mostly deals in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "GeometryError",
    "DegenerateTriangle",
    "InvalidPolygon",
    "OutOfRange",
    "Containment",
    "SpherePoint",
    "SphTriangle",
    "SphPolygon",
    "arc_distance",
    "vertex_angle",
    "area",
    "contains",
    "polygon_contains",
    "point_on_arc",
    "triangle_side_margins",
    "polygon_side_margins",
    "polygon_area",
    "polygon_diameter",
]


class GeometryError(ValueError):
    """Base class for geometric validation failures."""


class DegenerateTriangle(GeometryError):
    """Spherical triangle violates its invariants (coincident/antipodal
    vertices, not confined to an open hemisphere, or a side >= pi)."""


class InvalidPolygon(GeometryError):
    """Spherical polygon is not strictly convex (which covers not lying in
    an open hemisphere), or has coincident or antipodal consecutive
    vertices."""


class OutOfRange(GeometryError):
    """A requested arc length falls outside the admissible interval."""


class Containment(Enum):
    INSIDE = "INSIDE"
    BOUNDARY = "BOUNDARY"
    OUTSIDE = "OUTSIDE"


def _as_unit(v) -> np.ndarray:
    """Normalize to a unit vector, rejecting near-zero input."""
    a = np.asarray(v, dtype=float).reshape(3)
    n = float(np.linalg.norm(a))
    if n < 1e-14:
        raise GeometryError("cannot normalize a near-zero 3-vector")
    a = a / n
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """A point on the unit sphere, stored as a unit 3-vector."""

    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _as_unit(self.vec))

    def __repr__(self):
        x, y, z = self.vec
        return f"SpherePoint({x:.12g}, {y:.12g}, {z:.12g})"


def _vec(p) -> np.ndarray:
    """Accept SpherePoint or raw array-like; return a unit vector."""
    if isinstance(p, SpherePoint):
        return p.vec
    return _as_unit(p)


def arc_distance(p, q) -> float:
    """Great-circle distance between two points, in [0, pi].

    Uses atan2(|p x q|, p.q) rather than arccos(p.q): the arccos form
    loses half the significant digits near 0 and pi.
    """
    u, v = _vec(p), _vec(q)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def _tangent_towards(at: np.ndarray, towards: np.ndarray) -> np.ndarray:
    """Unit tangent vector at `at` pointing along the geodesic to `towards`."""
    t = towards - float(np.dot(at, towards)) * at
    n = float(np.linalg.norm(t))
    if n < 1e-14:
        raise DegenerateTriangle("tangent undefined: points coincident or antipodal")
    return t / n


def point_on_arc(a, b, d: float, tol: float = DEFAULT_TOL) -> SpherePoint:
    """Point at arc length d from a along the minor great-circle arc to b.

    Requires 0 <= d <= arc_distance(a, b) (up to tol) and a, b not antipodal.
    """
    u, v = _vec(a), _vec(b)
    full = arc_distance(u, v)
    if full > math.pi - 1e-9:
        raise OutOfRange("arc endpoints are antipodal; the minor arc is ambiguous")
    if d < -tol or d > full + tol:
        raise OutOfRange(f"arc length {d} outside [0, {full}]")
    d = min(max(d, 0.0), full)
    t = _tangent_towards(u, v)
    return SpherePoint(math.cos(d) * u + math.sin(d) * t)


def _walk(a: np.ndarray, b: np.ndarray, d: float) -> np.ndarray:
    """Like point_on_arc but without range clamping (may pass beyond b)."""
    t = _tangent_towards(a, b)
    return math.cos(d) * a + math.sin(d) * t


def _rotate_about(axis: np.ndarray, v: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of v about a unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    return c * v + s * np.cross(axis, v) + (1.0 - c) * float(np.dot(axis, v)) * axis


def _check_triangle_vertices(vs: np.ndarray, tol: float) -> None:
    for i in range(3):
        for j in range(i + 1, 3):
            d = arc_distance(vs[i], vs[j])
            if d < tol or d > math.pi - tol:
                raise DegenerateTriangle(
                    f"vertices {i},{j} at angular distance {d}: coincident or antipodal"
                )


class SphTriangle:
    """Geodesic triangle on the unit sphere, positively oriented.

    The constructor normalizes orientation by swapping the last two
    vertices when the vertex determinant is negative, so downstream
    hemisphere tests never need a sign case split.
    """

    __slots__ = ("vertices",)

    def __init__(self, v1, v2, v3, tol: float = DEFAULT_TOL):
        a, b, c = _vec(v1), _vec(v2), _vec(v3)
        vs = np.array([a, b, c])
        _check_triangle_vertices(vs, tol)
        det = float(np.linalg.det(vs))
        if abs(det) < 1e-12:
            raise DegenerateTriangle(
                "vertices are coplanar with the center: no open hemisphere contains the triangle"
            )
        if det < 0:
            b, c = c, b
        self.vertices = (SpherePoint(a), SpherePoint(b), SpherePoint(c))

    @property
    def matrix(self) -> np.ndarray:
        """3x3 array whose rows are the vertex vectors."""
        return np.array([p.vec for p in self.vertices])

    def side_lengths(self) -> tuple:
        """(|v1 v2|, |v1 v3|, |v2 v3|)."""
        a, b, c = (p.vec for p in self.vertices)
        return (arc_distance(a, b), arc_distance(a, c), arc_distance(b, c))

    def __repr__(self):
        s = self.side_lengths()
        return f"SphTriangle(sides=({s[0]:.6g}, {s[1]:.6g}, {s[2]:.6g}))"


class SphPolygon:
    """Convex geodesic polygon, >= 3 vertices, positively oriented.

    The constructor validates the vertex cycle in one pass over its sides
    and rejects, rather than repairs, anything else: consecutive vertices
    must be neither coincident nor antipodal, and every vertex off a side
    must lie more than `tol` from that side's great circle (dot with the
    side's unit normal), all on the same side.  A clockwise cycle is
    reversed.  `SolidAngle` relies on this as its only validation pass.

    Strict convexity implies salience, so there is no separate hemisphere
    test: in the positive orientation a vertex has dot 0 with the inward
    unit normals of its own two sides and dot > tol with the other n - 2,
    so the sum of all inward unit side normals has dot >= (n - 2) tol
    with every vertex.  `axis` is that sum, normalized (`hemisphere_axis`);
    it need not lie inside the polygon.
    Band decision: a cycle that is strictly convex at `tol` is accepted
    even when no open hemisphere holds it with a margin above `tol`.
    """

    __slots__ = ("vertices", "axis")

    def __init__(self, points, tol: float = DEFAULT_TOL):
        arr = np.array([_vec(p) for p in points])
        n = len(arr)
        if n < 3:
            raise InvalidPolygon("a spherical polygon needs at least 3 vertices")
        nxt = np.roll(arr, -1, axis=0)
        nrm = np.cross(arr, nxt)
        lens = np.linalg.norm(nrm, axis=1)
        sides = np.arctan2(lens, np.einsum("ij,ij->i", arr, nxt))
        bad = np.flatnonzero(sides < tol)
        if bad.size:
            raise InvalidPolygon(f"consecutive vertices {bad[0]},{bad[0] + 1} coincide")
        bad = np.flatnonzero(lens < 1e-12)
        if bad.size:
            raise InvalidPolygon(f"edge {bad[0]} joins antipodal or equal vertices")
        # dots[i, j]: unit normal of side i (vertices i, i+1) against vertex j,
        # leaving out the two vertices of the side itself.
        dots = (nrm / lens[:, None]) @ arr.T
        idx = np.arange(n)
        off = np.ones((n, n), dtype=bool)
        off[idx, idx] = off[idx, (idx + 1) % n] = False
        dots = dots[off]
        if dots.max() < -tol:
            arr = arr[::-1]
        elif dots.min() <= tol:
            raise InvalidPolygon("polygon is not strictly convex")
        self.axis = hemisphere_axis(arr, tol)
        self.vertices = tuple(SpherePoint(v) for v in arr)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([p.vec for p in self.vertices])

    def __len__(self):
        return len(self.vertices)


def hemisphere_axis(arr: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A unit direction with positive dot against every vertex of a
    positively oriented cycle that is strictly convex at `tol`, as
    `SphPolygon` validates it: the normalized sum of the inward unit side
    normals.

    Convexity implies salience: each vertex has dot 0 with the normals of
    its own two sides and dot > tol with the other n - 2, so the sum has
    dot >= (n - 2) tol with every vertex, and no search is needed.  `tol`
    enters only this bound; the cycle is not checked again.  Band
    decision: a cycle strictly convex at `tol` gets an axis even when its
    best hemisphere margin is <= tol.  The axis need not lie inside the
    polygon; for a narrow one it lies far outside.
    """
    return _as_unit(_side_normals(arr).sum(axis=0))


def _side_normals(mat: np.ndarray) -> np.ndarray:
    """Inward unit normals of the directed sides of a positively oriented
    vertex cycle (interior has positive dot with every normal)."""
    nxt = np.roll(mat, -1, axis=0)
    nrm = np.cross(mat, nxt)
    return nrm / np.linalg.norm(nrm, axis=1, keepdims=True)


def polygon_side_margins(poly, p) -> np.ndarray:
    """Signed angular distances of p to the side planes of a triangle or
    convex polygon, positive towards the interior."""
    dots = np.clip(_side_normals(poly.matrix) @ _vec(p), -1.0, 1.0)
    return np.arcsin(dots)


triangle_side_margins = polygon_side_margins


def _classify_margins(margins: np.ndarray, tol: float) -> Containment:
    worst = float(margins.min())
    if worst < -tol:
        return Containment.OUTSIDE
    if worst <= tol:
        return Containment.BOUNDARY
    return Containment.INSIDE


def contains(tri: SphTriangle, p, tol: float = DEFAULT_TOL) -> Containment:
    """Locate p relative to the triangle: INSIDE / BOUNDARY / OUTSIDE.

    BOUNDARY is the +-tol band around the sides.
    """
    return _classify_margins(triangle_side_margins(tri, p), tol)


def polygon_contains(poly: SphPolygon, p, tol: float = DEFAULT_TOL) -> Containment:
    """Three-way point location relative to a convex spherical polygon."""
    return _classify_margins(polygon_side_margins(poly, p), tol)


def vertex_angle(tri: SphTriangle, i: int) -> float:
    """Interior angle at vertex i, in (0, pi).

    Computed from unit tangents via atan2, which is stable even when the
    adjacent sides are very short.
    """
    vs = tri.matrix
    a = vs[i]
    b, c = vs[(i + 1) % 3], vs[(i + 2) % 3]
    tb, tc = _tangent_towards(a, b), _tangent_towards(a, c)
    return math.atan2(float(np.linalg.norm(np.cross(tb, tc))), float(np.dot(tb, tc)))


def area(tri: SphTriangle) -> float:
    """Spherical excess (sum of vertex angles minus pi) of the triangle.

    Computed by the vector form tan(E/2) = |det(v1 v2 v3)| / (1 + sum of
    pairwise dots), which holds full absolute accuracy over the whole
    excess range (0, 2 pi): side-length based forms lose up to ~1e-11
    near thin slivers, where one of their tangent factors is a cancelled
    difference of arc lengths.
    """
    m = tri.matrix
    num = abs(float(np.linalg.det(m)))
    den = 1.0 + float(m[0] @ m[1] + m[0] @ m[2] + m[1] @ m[2])
    return 2.0 * math.atan2(num, den)


def polygon_area(poly: SphPolygon) -> float:
    """Area of a convex spherical polygon by Girard's theorem:
    sum of interior angles minus (n - 2) pi."""
    mat = poly.matrix
    n = len(mat)
    total = 0.0
    for i in range(n):
        a = mat[i]
        tb = _tangent_towards(a, mat[(i - 1) % n])
        tc = _tangent_towards(a, mat[(i + 1) % n])
        total += math.atan2(float(np.linalg.norm(np.cross(tb, tc))), float(np.dot(tb, tc)))
    return total - (n - 2) * math.pi


def polygon_diameter(poly: SphPolygon) -> float:
    """Angular diameter of a convex polygon: max pairwise vertex distance
    (the diameter of a convex spherical set is attained at vertices)."""
    mat = poly.matrix
    best = 0.0
    for i in range(len(mat)):
        for j in range(i + 1, len(mat)):
            best = max(best, arc_distance(mat[i], mat[j]))
    return best
