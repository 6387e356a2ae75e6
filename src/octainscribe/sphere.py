"""Spherical trigonometry kernel: geodesic triangles and convex polygons
on the unit sphere.

All angles are radians.  Points are plain unit 3-vectors; a triangle or
polygon holds its vertices as the rows of one read-only (n, 3) array,
normalized and validated once, in one vectorized pass each, and keeps
the side lengths of that pass; a polygon also keeps its unit side
normals.  Every geometric tolerance is the fixed DEFAULT_TOL.  Distances
use the atan2 form, which stays accurate for the small triangles this
toolkit mostly deals in.

The package's 3-vector arithmetic runs on the kernels here: `_cross`
for cross products, `_norm3` for the norms of the rows of an (..., 3)
array, and math.sqrt(v @ v) for the norm of one vector.  Each gives the
bits of the numpy call it replaces (np.cross, np.linalg.norm(axis=-1)
and np.linalg.norm of a 1-D array) without numpy's per-call overhead,
which on 3-vectors costs more than the arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "GeometryError",
    "DegenerateTriangle",
    "InvalidPolygon",
    "SphTriangle",
    "SphPolygon",
    "arc_distance",
    "vertex_angle",
    "area",
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


# Component orders of the factors of a cross product: the products
# a1 b2, a2 b0, a0 b1, then a2 b1, a0 b2, a1 b0.
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two arrays with last axis 3, broadcast alike: the same
    products, a1 b2 - a2 b1 and so on, so the same bits."""
    p = a[..., _CROSS_A] * b[..., _CROSS_B]
    return p[..., :3] - p[..., 3:]


def _norm3(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=-1) for a last axis of length 3: same bits,
    faster, most of all on large arrays, where a reduction over a short
    last axis is slow."""
    return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)


def _as_unit(v) -> np.ndarray:
    """Normalize to a unit vector, rejecting near-zero input."""
    a = np.asarray(v, dtype=float).reshape(3)
    n = math.sqrt(a @ a)
    if n < 1e-14:
        raise GeometryError("cannot normalize a near-zero 3-vector")
    a = a / n
    a.flags.writeable = False
    return a


def _unit_rows(points) -> np.ndarray:
    """The points as rows of an (n, 3) array, each normalized to unit
    length in one pass, rejecting non-finite and near-zero rows."""
    a = np.array(points, dtype=float).reshape(-1, 3)
    n = _norm3(a)
    if not ((n >= 1e-14) & (n < np.inf)).all():
        raise GeometryError("cannot normalize a near-zero or non-finite 3-vector")
    return a / n[:, None]


def _arcs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise great-circle distances between unit vectors, in [0, pi].

    Uses atan2(|p x q|, p.q) rather than arccos(p.q): the arccos form
    loses half the significant digits near 0 and pi.
    """
    return np.arctan2(_norm3(_cross(p, q)), np.einsum("...i,...i->...", p, q))


# Row indices of the vertex pairs (1, 2), (1, 3) and (2, 3) of a triangle.
_PAIRS = ([0, 0, 1], [1, 2, 2])


def arc_distance(p, q) -> float:
    """Great-circle distance between two points (any nonzero 3-vectors),
    in [0, pi]."""
    return float(_arcs(_as_unit(p), _as_unit(q)))


def _tangent_towards(at: np.ndarray, towards: np.ndarray) -> np.ndarray:
    """Unit tangent vector at `at` pointing along the geodesic to `towards`."""
    t = towards - float(np.dot(at, towards)) * at
    n = math.sqrt(t @ t)
    if n < 1e-14:
        raise DegenerateTriangle("tangent undefined: points coincident or antipodal")
    return t / n


def _rotate_about(axis: np.ndarray, v: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of v about a unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    return c * v + s * _cross(axis, v) + (1.0 - c) * float(np.dot(axis, v)) * axis


class SphTriangle:
    """Geodesic triangle on the unit sphere, positively oriented.

    `matrix` is a read-only 3x3 array whose rows are the unit vertex
    vectors.  The constructor normalizes the three vertices, rejects
    any pair closer than DEFAULT_TOL or farther than pi - DEFAULT_TOL
    and any triangle coplanar with the center, and swaps the last two
    vertices when the determinant is negative, so downstream hemisphere
    tests never need a sign case split.  The coplanarity test is
    |det| < 1e-12 sin(a) sin(b) sin(c) over the sides a, b, c.  Since
    det = sin(b) sin(c) sin(A), that is the law-of-sines ratio
    sin(A) / sin(a) below 1e-12: zero only for vertices on one great
    circle, and not driven to zero by the triangle's size.  `sides` keeps
    the side lengths (|v1 v2|, |v1 v3|, |v2 v3|) of that check, read-only,
    reordered with the swap.
    """

    __slots__ = ("matrix", "sides")

    def __init__(self, v1, v2, v3):
        m = _unit_rows((v1, v2, v3))
        d = _arcs(m[_PAIRS[0]], m[_PAIRS[1]])
        bad = (d < DEFAULT_TOL) | (d > math.pi - DEFAULT_TOL)
        if bad.any():
            k = int(np.argmax(bad))
            i, j = _PAIRS[0][k], _PAIRS[1][k]
            raise DegenerateTriangle(
                f"vertices {i},{j} at angular distance {d[k]}: coincident or antipodal"
            )
        # det = m0 . ((m1 - m0) x (m2 - m0)) stays accurate for tiny triangles.
        det = float(m[0] @ _cross(m[1] - m[0], m[2] - m[0]))
        if abs(det) < 1e-12 * float(np.sin(d).prod()):
            raise DegenerateTriangle(
                "vertices are coplanar with the center: no open hemisphere contains the triangle"
            )
        if det < 0:
            # |v1 v2| and |v1 v3| trade places; |v2 v3| = |v3 v2| to the bit.
            m, d = m[[0, 2, 1]], d[[1, 0, 2]]
        m.flags.writeable = d.flags.writeable = False
        self.matrix = m
        self.sides = d

    def __repr__(self):
        s = self.sides
        return f"SphTriangle(sides=({s[0]:.6g}, {s[1]:.6g}, {s[2]:.6g}))"


class SphPolygon:
    """Convex geodesic polygon, >= 3 vertices, positively oriented.

    `matrix` is a read-only (n, 3) array whose rows are the unit vertex
    vectors, normalized in one row-wise pass.
    The constructor validates the vertex cycle in one pass over its sides
    and rejects, rather than repairs, anything else: consecutive vertices
    must be neither coincident nor antipodal, and every vertex off a side
    must lie more than DEFAULT_TOL from that side's great circle (dot
    with the side's unit normal), all on the same side.  A clockwise
    cycle is reversed.  `SolidAngle` relies on this as its only
    validation pass.  `normals` and `sides` keep that pass's read-only
    inward unit side normals and side lengths (row i: the side from
    vertex i to i + 1).
    """

    __slots__ = ("matrix", "normals", "sides")

    def __init__(self, points):
        arr = _unit_rows(points)
        n = len(arr)
        if n < 3:
            raise InvalidPolygon("a spherical polygon needs at least 3 vertices")
        nxt = _next_rows(arr)
        nrm = _cross(arr, nxt)
        lens = _norm3(nrm)
        sides = np.arctan2(lens, np.einsum("ij,ij->i", arr, nxt))
        bad = sides < DEFAULT_TOL
        if bad.any():
            k = int(np.argmax(bad))
            raise InvalidPolygon(f"consecutive vertices {k},{k + 1} coincide")
        bad = lens < 1e-12
        if bad.any():
            raise InvalidPolygon(f"edge {int(np.argmax(bad))} joins antipodal or equal vertices")
        unit = nrm / lens[:, None]
        # Unit normal of side i (vertices i, i+1) against vertex j, leaving
        # out the two vertices of the side itself.
        dots = (unit @ arr.T).ravel()[_off_side(n)]
        if dots.max() < -DEFAULT_TOL:
            # Side i of the reversed cycle joins old vertices n-1-i and
            # n-2-i: old side n-2-i, traversed backwards.
            arr = arr[::-1].copy()
            unit = -np.concatenate((unit[-2::-1], unit[-1:]))
            sides = np.concatenate((sides[-2::-1], sides[-1:]))
        elif dots.min() <= DEFAULT_TOL:
            raise InvalidPolygon("polygon is not strictly convex")
        arr.flags.writeable = unit.flags.writeable = sides.flags.writeable = False
        self.matrix = arr
        self.normals = unit
        self.sides = sides

    def __len__(self):
        return len(self.matrix)


def _next_rows(a: np.ndarray) -> np.ndarray:
    """Row i + 1 of a in place of row i, cyclically: np.roll(a, -1, axis=0)."""
    return np.concatenate((a[1:], a[:1]))


@lru_cache(maxsize=64)
def _off_side(n: int) -> np.ndarray:
    """Flat indices, into an n x n (side, vertex) array of an n-cycle, of the
    pairs whose vertex is not on the side: side i holds vertices i and i + 1."""
    idx = np.arange(n)
    off = np.ones((n, n), dtype=bool)
    off[idx, idx] = off[idx, (idx + 1) % n] = False
    flat = np.flatnonzero(off)
    flat.flags.writeable = False  # one array serves every caller
    return flat


# Kept only because the benchmark tracer wraps it; no production path calls it.
def hemisphere_axis(normals: np.ndarray) -> np.ndarray:
    """A unit direction with positive dot against every vertex of a
    strictly convex cycle, as `SphPolygon` validates it: the normalized
    sum of its inward unit side normals.

    Convexity implies salience: each vertex has dot 0 with the normals of
    its own two sides and dot > DEFAULT_TOL with the other n - 2, so the
    sum has dot >= (n - 2) DEFAULT_TOL with every vertex, and no search
    is needed, even when no hemisphere holds the cycle with a margin
    above DEFAULT_TOL.  The axis need not lie inside the polygon; for a
    narrow one it lies far outside.
    """
    return _as_unit(normals.sum(axis=0))


def _corner_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Angle at a between the geodesics to b and c, in [0, pi].

    Computed from unit tangents via atan2, which is stable even when the
    sides are very short.
    """
    tb, tc = _tangent_towards(a, b), _tangent_towards(a, c)
    w = _cross(tb, tc)
    return math.atan2(math.sqrt(w @ w), float(np.dot(tb, tc)))


def vertex_angle(tri: SphTriangle, i: int) -> float:
    """Interior angle at vertex i, in (0, pi)."""
    vs = tri.matrix
    return _corner_angle(vs[i], vs[(i + 1) % 3], vs[(i + 2) % 3])


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
    total = sum(_corner_angle(mat[i], mat[i - 1], mat[(i + 1) % n]) for i in range(n))
    return total - (n - 2) * math.pi


def polygon_diameter(poly: SphPolygon) -> float:
    """Angular diameter of a convex polygon: max pairwise vertex distance
    (the diameter of a convex spherical set is attained at vertices)."""
    i, j = np.triu_indices(len(poly), 1)
    return float(_arcs(poly.matrix[i], poly.matrix[j]).max())
