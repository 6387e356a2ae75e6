"""Solid-angle classification and the witness constructions behind it.

A solid angle (convex polyhedral cone) is *special* when its boundary
admits an inscribed regular octahedron.  For trihedral angles this is
decided exactly by a finite placement test of the angle's spherical
triangle inside the regular spherical triangle of side pi/3; one
threshold shortcut decides a facet angle above pi/3 (not special).  For
angles with four or more edges only a necessary condition is available:
whether the angle's spherical polygon can be rotated into that same
regular triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product
from typing import Optional

import numpy as np

from .pose import OctahedronPose
from .rotations import _quats_to_matrices, matrix_to_quat, quat_from_rotvec
from .sphere import (
    DEFAULT_TOL,
    GeometryError,
    SphPolygon,
    SphTriangle,
    _as_unit,
    _cross,
    _norm3,
    _tangent_towards,
    _unit_rows,
    arc_distance,
    hemisphere_axis,  # noqa: F401 - not called here, but the benchmark tracer wraps it
    polygon_area,
    polygon_diameter,
    vertex_angle,
)

__all__ = [
    "T0_SIDE",
    "T0_VERTEX_ANGLE",
    "T0_AREA",
    "T0_TRIANGLE",
    "SolidAngle",
    "NotTrihedral",
    "InvalidSolidAngle",
    "NotNonSpecial",
    "PathVerificationFailed",
    "ConstructionFailed",
    "ClassTag",
    "AngleClass",
    "PlacementCertificate",
    "FitTag",
    "T0FitResult",
    "GeneralKind",
    "GeneralClassification",
    "triangle_from_sides",
    "angle_from_sides",
    "placement_test",
    "classify_trihedral",
    "construct_inscribed_octahedron",
    "fits_in_T0",
    "classify_general",
    "deformation_path",
]


class NotTrihedral(GeometryError):
    """Operation requires a solid angle with exactly three edges."""


class InvalidSolidAngle(GeometryError):
    """Edge set does not describe a salient, full-dimensional convex cone
    with every edge extreme."""


class NotNonSpecial(GeometryError):
    """Deformation paths are only defined for non-special triangles."""


class PathVerificationFailed(RuntimeError):
    """An intermediate triangle of a deformation path classified as
    special; this indicates an implementation bug, not a boundary case."""


class ConstructionFailed(RuntimeError):
    """The witness octahedron could not be realized at usable precision."""


# ---------------------------------------------------------------------------
# The regular spherical triangle of side pi/3 (canonical placement).

T0_SIDE = math.pi / 3.0
T0_VERTEX_ANGLE = math.acos(1.0 / 3.0)
T0_AREA = 3.0 * T0_VERTEX_ANGLE - math.pi

_HALF = T0_VERTEX_ANGLE / 2.0
_T1 = np.array([0.0, 0.0, 1.0])
_T2 = np.array(
    [math.sin(T0_SIDE) * math.cos(_HALF), -math.sin(T0_SIDE) * math.sin(_HALF), math.cos(T0_SIDE)]
)
_T3 = np.array(
    [math.sin(T0_SIDE) * math.cos(_HALF), math.sin(T0_SIDE) * math.sin(_HALF), math.cos(T0_SIDE)]
)

T0_TRIANGLE = SphTriangle(_T1, _T2, _T3)

# Inward unit normals of the sides t1 t2, t2 t3 and t3 t1.
_T0_NORMALS = np.array(
    [
        _as_unit(_cross(_T1, _T2)),
        _as_unit(_cross(_T2, _T3)),
        _as_unit(_cross(_T3, _T1)),
    ]
)


def angle_from_sides(opposite, b, c):
    """Spherical law of cosines: the vertex angle opposite a given side.
    Takes scalars or arrays of one shape, elementwise."""
    sb, sc = np.sin(b), np.sin(c)
    if sb.min() < 1e-12 or sc.min() < 1e-12:
        raise GeometryError("adjacent sides too short to define a vertex angle")
    x = (np.cos(opposite) - np.cos(b) * np.cos(c)) / (sb * sc)
    return np.arccos(np.clip(x, -1.0, 1.0))


def triangle_from_sides(s12: float, s13: float, s23: float) -> SphTriangle:
    """Canonical spherical triangle with prescribed side lengths.

    Vertex 1 sits at the north pole, vertex 2 on the zero meridian; the
    result is positively oriented with the labels in place.
    """
    sides = (s12, s13, s23)
    if any(s <= 0 or s >= math.pi for s in sides):
        raise GeometryError(f"sides must lie in (0, pi): {sides}")
    if s23 >= s12 + s13 or s23 <= abs(s12 - s13) or s12 + s13 + s23 >= 2 * math.pi:
        raise GeometryError(f"sides violate the spherical triangle inequality: {sides}")
    return _pole_triangle(s12, s13, angle_from_sides(s23, s12, s13))


def _pole_triangle(s12: float, s13: float, theta: float) -> SphTriangle:
    """The triangle with sides s12 = |v1 v2| and s13 = |v1 v3| at the
    vertex angle theta: v1 at the north pole, v2 on the zero meridian."""
    v1 = np.array([0.0, 0.0, 1.0])
    v2 = np.array([math.sin(s12), 0.0, math.cos(s12)])
    v3 = np.array(
        [math.sin(s13) * math.cos(theta), math.sin(s13) * math.sin(theta), math.cos(s13)]
    )
    return SphTriangle(v1, v2, v3)


# ---------------------------------------------------------------------------
# Solid angles.


class SolidAngle:
    """Apex plus the extreme rays of a salient, full-dimensional convex
    cone, stored in counterclockwise order around an interior axis.

    Construction normalizes the edges once and sorts them by azimuth
    around their mean, keeping the first edge first.  A positive
    combination of the edges lies strictly inside any salient convex
    cone, so this is the cone's counterclockwise cycle; a near-zero mean
    is rejected at once.  Salience, orientation and strict convexity
    (which also rules out edges that do not span R^3) are then checked
    by the one `SphPolygon` built from the sorted edges: `edges` is that
    polygon's read-only `matrix`, and the facet normals are its side
    normals, negated.  `axis` is the edge mean, a direction inside the
    cone; the polygon's hemisphere axis lies outside narrow cones.
    """

    __slots__ = ("apex", "edges", "axis", "polygon")

    def __init__(self, apex, edges):
        try:
            apex = np.asarray(apex, dtype=float).reshape(3)
            raw = np.array(edges, dtype=float).reshape(-1, 3)
        except (TypeError, ValueError) as exc:
            raise InvalidSolidAngle(f"apex and edges must be points of 3 numbers ({exc})") from exc
        if not np.isfinite(apex).all():
            raise InvalidSolidAngle("apex coordinates must be finite")
        try:
            E = _unit_rows(raw)
        except GeometryError as exc:
            raise InvalidSolidAngle(f"edges must be finite and nonzero ({exc})") from exc
        if len(E) < 3:
            raise InvalidSolidAngle("a solid angle needs at least 3 edges")
        mean = E.sum(axis=0)
        norm = math.sqrt(mean @ mean)
        if norm <= 1e-12:
            raise InvalidSolidAngle("cone is not salient (the edges sum to nearly zero)")
        axis = mean / norm
        axis.flags.writeable = False
        try:
            # The polygon normalizes the raw edges itself: a unit edge
            # normalized a second time can move a convexity dot across
            # DEFAULT_TOL.
            poly = SphPolygon(raw[_ccw_order(E, axis)])
        except GeometryError as exc:
            msg = f"edges are not a salient, strictly convex cycle: {exc}"
            raise InvalidSolidAngle(msg) from exc
        self.apex = apex
        self.edges = poly.matrix
        self.axis = axis
        self.polygon = poly

    @classmethod
    def from_triangle(cls, tri: SphTriangle, apex=(0.0, 0.0, 0.0)) -> "SolidAngle":
        return cls(apex, tri.matrix)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def facet_angles(self) -> np.ndarray:
        """Planar opening angle of each flat facet (facet i spans edges
        i and i+1): the side lengths of the spherical polygon, read-only."""
        return self.polygon.sides

    def facet_normal(self, i: int) -> np.ndarray:
        """Outward unit normal of facet i (apex-local halfspace n.x <= 0)."""
        return -self.polygon.normals[i]

    def __repr__(self):
        return f"SolidAngle(apex={self.apex.tolist()}, n_edges={self.n_edges})"


_AXES = np.eye(3)


def _ccw_order(E: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Edge order by azimuth counterclockwise around `axis`, first edge
    first.  The frame (x = ref x axis, y = ref projected off axis) comes
    from the coordinate axis farthest from `axis`, so it stays orthogonal
    to `axis` to rounding even when the edges lie within 1e-8 of it."""
    ref = _AXES[int(np.argmin(np.abs(axis)))]
    x = _as_unit(_cross(ref, axis))
    y = _as_unit(ref - float(ref @ axis) * axis)
    az = np.arctan2(E @ y, E @ x)
    az = np.mod(az - az[0], 2 * math.pi)
    return np.argsort(az, kind="stable")


# The 6 labelings (v1, v2, v3) = (V[i], V[j], V[k]) in permutation order.
# For side lengths (|V0 V1|, |V0 V2|, |V1 V2|), the pair {x, y} sits at
# index x + y - 1, which gives each labeling's c = |v1 v2|, b = |v1 v3|
# and a = |v2 v3|.  A SphTriangle is positively oriented, so a labeling
# mirrors it exactly when it is an odd permutation.
_PERMS = tuple(permutations(range(3)))
_C, _B, _A = (np.array([p[x] + p[y] - 1 for p in _PERMS]) for x, y in ((0, 1), (0, 2), (1, 2)))
_ODD = (False, True, True, False, False, True)


def _normalized_perm(sides: np.ndarray) -> int:
    """Index of the first labeling with |v1 v2| >= |v1 v3| >= |v2 v3|.
    One always exists: v1 is the vertex shared by the two longest sides."""
    c, b, a = sides[_C], sides[_B], sides[_A]
    return int(np.flatnonzero((c >= b) & (b >= a))[0])


# ---------------------------------------------------------------------------
# The placement test.


class ClassTag(Enum):
    SPECIAL = "SPECIAL"
    NON_SPECIAL = "NON_SPECIAL"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True, eq=False)
class PlacementCertificate:
    """Witness of a proper placement: vertex 1 of the (possibly mirrored)
    triangle at t1, vertex 2 on the arc t1 t2, vertex 3 strictly inside
    the triangle t1 v2 t3, with the three containment margins recorded."""

    labeling: tuple
    mirrored: bool
    placed_triangle: SphTriangle
    margins: np.ndarray

    def __post_init__(self):
        P = self.placed_triangle.matrix
        if arc_distance(P[0], _T1) > 1e-10:
            raise GeometryError("certificate: placed v1 does not coincide with t1")
        off = abs(math.asin(min(1.0, max(-1.0, float(_T0_NORMALS[0] @ P[1])))))
        if off > 1e-10 or arc_distance(P[1], _T1) > T0_SIDE + 1e-10:
            raise GeometryError("certificate: placed v2 does not lie on the arc t1 t2")


@dataclass(frozen=True, eq=False)
class AngleClass:
    tag: ClassTag
    margin: float
    certificate: Optional[PlacementCertificate] = None

    def __post_init__(self):
        if self.tag is ClassTag.SPECIAL and self.certificate is None:
            raise GeometryError("SPECIAL classification requires a certificate")


# Labelings whose margins differ by less than this count as tied.
_TIE = 1e-12

# Unit tangent at t1 towards t2; t1 x tangent is the side normal _T0_NORMALS[0].
_TANGENT = _tangent_towards(_T1, _T2)
_MIRROR = np.array([1.0, -1.0])


def _placements(sides: np.ndarray):
    """Best placement of every labeling in `_PERMS`, from the three side
    lengths alone.

    For labels (v1, v2, v3) with c = |v1 v2|, b = |v1 v3|, a = |v2 v3|:
    v1 sits at t1, v2 at p2 = cos c t1 + sin c u on the arc t1 t2 (u the
    tangent towards t2), and v3 at cos b t1 + sin b (cos A u +- sin A n)
    with A the vertex angle at v1 and n = t1 x u, one point per mirror
    image.  Its margin is the smaller of T0_SIDE - c and v3's margins
    inside the triangle (t1, p2, t3), whose sides t1 p2 and t3 t1 lie on
    fixed great circles; the better mirror image (the first on a tie) is
    kept.  Returns per labeling the margin, p2, v3's position and its
    three side margins.
    """
    c, b, a = sides[_C], sides[_B], sides[_A]
    theta = angle_from_sides(a, b, c)[:, None, None]
    p2 = np.cos(c)[:, None] * _T1 + np.sin(c)[:, None] * _TANGENT
    turned = np.cos(theta) * _TANGENT + (_MIRROR[:, None] * np.sin(theta)) * _T0_NORMALS[0]
    p3 = np.cos(b)[:, None, None] * _T1 + np.sin(b)[:, None, None] * turned
    normals = np.repeat(_T0_NORMALS[None], len(c), axis=0)
    n2 = _cross(p2, _T3)
    normals[:, 1] = n2 / _norm3(n2)[:, None]
    margins3 = np.arcsin(np.clip(np.einsum("lmi,lsi->lms", p3, normals), -1.0, 1.0))
    m = np.minimum((T0_SIDE - c)[:, None], margins3.min(axis=2))
    rows, side = np.arange(len(c)), m.argmax(axis=1)
    return m[rows, side], p2, p3[rows, side], margins3[rows, side]


def placement_test(tri: SphTriangle) -> AngleClass:
    """Decide whether the triangle places properly inside the regular
    spherical triangle of side pi/3: v1 at a corner, v2 on an adjacent
    side, v3 inside the triangle cut off by v2 and the opposite corner.

    The condition depends only on the three side lengths, so all 6
    labelings and both mirror images are evaluated at once from them
    (`_placements`).  The reported margin is the best over all of them
    (positive = proper placement with room, negative = best placement
    still violated by that much); the tag takes the DEFAULT_TOL band.
    The certificate comes from the first labeling, in permutation order,
    within _TIE of that best: mirror-image labelings tie exactly when the
    length term binds, and the last bit must not pick between them.
    """
    return _placement_verdict(tri.sides)


def _placement_verdict(sides: np.ndarray) -> AngleClass:
    """`placement_test` from the sides (|v1 v2|, |v1 v3|, |v2 v3|)."""
    margin, p2, p3, margins3 = _placements(sides)
    best = float(margin.max())
    if best > DEFAULT_TOL:
        k = int(np.argmax(margin >= best - _TIE))
        cert = PlacementCertificate(
            labeling=_PERMS[k],
            mirrored=_ODD[k],
            placed_triangle=SphTriangle(_T1, p2[k], p3[k]),
            margins=margins3[k],
        )
        return AngleClass(ClassTag.SPECIAL, best, cert)
    if best < -DEFAULT_TOL:
        return AngleClass(ClassTag.NON_SPECIAL, best, None)
    return AngleClass(ClassTag.INDETERMINATE, best, None)


def classify_trihedral(angle: SolidAngle) -> AngleClass:
    """Classify a trihedral angle, with a threshold fast path: any facet
    angle above pi/3 is not special, with margin T0_SIDE minus the largest
    facet angle; every other angle goes through the placement test and
    carries its margin and certificate.

    The sides are the angle's facet angles; its edges are already a
    positively oriented cycle.  Certificate labelings index the angle's
    own edges, so a SPECIAL result feeds the witness construction
    directly.
    """
    if angle.n_edges != 3:
        raise NotTrihedral(f"expected 3 edges, got {angle.n_edges}")
    # Facet angles (|E0 E1|, |E1 E2|, |E2 E0|) in triangle side order.
    sides = angle.facet_angles()[[0, 2, 1]]
    top = float(sides.max())
    if top > T0_SIDE + DEFAULT_TOL:
        return AngleClass(ClassTag.NON_SPECIAL, T0_SIDE - top, None)
    return _placement_verdict(sides)


# ---------------------------------------------------------------------------
# Witness construction (the face / edge / vertex pattern).

# Model octahedron labeling: a = e2, b = e1, c = e3 and primes opposite.
# The directions of (a - b), (b' - c'), (c - a') form a regular spherical
# triangle of side pi/3; the rotation taking that triangle onto the
# canonical one fixes the octahedron orientation of every placement.
_MODEL_A = np.array([0.0, 1.0, 0.0])
_MODEL_B = np.array([1.0, 0.0, 0.0])
_MODEL_C = np.array([0.0, 0.0, 1.0])
_D_FRAME = np.column_stack(
    [
        _as_unit(_MODEL_A - _MODEL_B),
        _as_unit(-_MODEL_B - (-_MODEL_C)),
        _as_unit(_MODEL_C - (-_MODEL_A)),
    ]
)
_T_FRAME = np.column_stack([_T1, _T2, _T3])
_S_MODEL = _T_FRAME @ np.linalg.inv(_D_FRAME)
assert np.allclose(_S_MODEL @ _S_MODEL.T, np.eye(3), atol=1e-12)
assert np.linalg.det(_S_MODEL) > 0

# Model vertices (rows) and the facet each lies on: facet 0 = span(v1, v2)
# carries the face a'b'c', facet 1 = span(v1, v3) the edge ab, facet 2 =
# span(v2, v3) the vertex c.
_CONSTRUCT_U = np.array([-_MODEL_A, -_MODEL_B, -_MODEL_C, _MODEL_A, _MODEL_B, _MODEL_C])
_CONSTRUCT_FACET = np.array([0, 0, 0, 1, 1, 2])
# The labelled edges spanning each facet.
_FACET_EDGES = (np.array([0, 0, 1]), np.array([1, 2, 2]))
_FLIP_X = np.diag([-1.0, 1.0, 1.0])


# The construction's relative plane and sector tolerance, and its plane checks.
_CONSTRUCT_TOL = 1e-9
_CONSTRUCT_CHECKS = 6


def construct_inscribed_octahedron(angle: SolidAngle, cert: PlacementCertificate) -> OctahedronPose:
    """Realize the certificate as an actual octahedron with all six
    vertices on the angle's facets: one face on the facet shared by the
    placed v1 and v2, one edge on the facet of v1 and v3, one vertex on
    the facet of v2 and v3.

    The pose is normalized so the farthest vertex sits at distance 1 from
    the apex (any positive rescaling about the apex is also a solution).
    """
    if angle.n_edges != 3:
        raise NotTrihedral("witness construction requires a trihedral angle")
    if cert is None:
        raise ConstructionFailed("no placement certificate available")
    if float(cert.margins.min()) <= 0:
        raise ConstructionFailed("certificate margins are not strictly positive")
    W = angle.edges[list(cert.labeling)]
    P = cert.placed_triangle.matrix
    # Orthogonal (possibly improper) congruence with Q W_k = P_k.
    H = P.T @ W
    U, _, Vt = np.linalg.svd(H)
    Q = U @ Vt
    R_lab = Q.T @ _S_MODEL

    # The facet spanned by two labelled edges is the one that does not
    # touch the third: facet (k + 1) % 3 of the angle for its edge k.
    normals = np.array([angle.facet_normal((cert.labeling[third] + 1) % 3) for third in (2, 1, 0)])

    A = normals[_CONSTRUCT_FACET]
    X = _CONSTRUCT_U @ R_lab.T
    center_local, *_ = np.linalg.lstsq(A, -np.einsum("ij,ij->i", A, X), rcond=None)
    # Plane residuals n.(c + R u), relative to the pose scale.  A narrow
    # angle's placed rotation carries rounding with a lever arm of about
    # 1/width; Gauss-Newton steps in c and a left rotation update remove it.
    for _ in range(_CONSTRUCT_CHECKS):
        plane_residual = A @ center_local + np.einsum("ij,ij->i", A, X)
        if np.abs(plane_residual).max() <= _CONSTRUCT_TOL:
            break
        step, *_ = np.linalg.lstsq(np.hstack([A, _cross(X, A)]), -plane_residual, rcond=None)
        center_local = center_local + step[:3]
        R_lab = _quats_to_matrices(quat_from_rotvec(step[3:])) @ R_lab
        X = _CONSTRUCT_U @ R_lab.T
    else:
        raise ConstructionFailed(f"plane residual {np.abs(plane_residual).max():.3e} x scale")

    verts_local = center_local + X
    radius = float(_norm3(verts_local).max())
    if radius < 1e-12:
        raise ConstructionFailed("construction collapsed to the apex")
    t = 1.0 / radius

    # Sector membership of every vertex on its assigned facet, gamma = n.x;
    # the limit scales with |x|, whose bits np.vecdot shares with np.linalg.norm.
    x = verts_local * t
    alpha, beta, gamma = _sector_coordinates(W, normals, x).T
    lim = _CONSTRUCT_TOL * np.maximum(1.0, np.sqrt(np.vecdot(x, x)))
    out = (alpha < -lim) | (beta < -lim) | (np.abs(gamma) > lim)
    if out.any():
        k = int(np.argmax(out))
        raise ConstructionFailed(
            f"vertex left its facet sector (alpha={alpha[k]:.3e}, beta={beta[k]:.3e}, gamma={gamma[k]:.3e})"
        )

    R = R_lab if np.linalg.det(R_lab) > 0 else R_lab @ _FLIP_X
    return OctahedronPose(angle.apex + t * center_local, matrix_to_quat(R), t)


def _sector_coordinates(W: np.ndarray, normals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row k: the coordinates (alpha, beta, gamma) of x[k] in the frame
    (ea, eb, n) of its assigned facet `_CONSTRUCT_FACET[k]`, spanned by the
    labelled edges ea and eb with outward normal n; one batched solve."""
    frames = np.stack([W[_FACET_EDGES[0]], W[_FACET_EDGES[1]], normals], axis=-1)
    return np.linalg.solve(frames[_CONSTRUCT_FACET], x[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# T0 containment for general angles.


class FitTag(Enum):
    FITS = "FITS"
    NO_FIT = "NO_FIT"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True, eq=False)
class T0FitResult:
    tag: FitTag
    margin: float
    rotation: Optional[np.ndarray]


def _t0_margin_for_matrices(mats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Min over vertices and sides of the signed in-T0 distance, for a
    batch of rotation matrices (k x 3 x 3)."""
    rotated = np.einsum("kij,nj->kni", mats, V)
    dots = np.clip(np.einsum("si,kni->kns", _T0_NORMALS, rotated), -1.0, 1.0)
    return np.arcsin(dots).min(axis=(1, 2))


_T0_MIN_HALF_SIDE = 1e-7
_T0_MAX_LIVE = 4096
_CELL_CORNERS = np.array(list(product((-1.0, 1.0), repeat=3)))


def fits_in_T0(poly: SphPolygon) -> T0FitResult:
    """Decide whether some rotation takes the convex polygon inside the
    regular spherical triangle T0 of side pi/3 (checked on its vertices).

    After the area and diameter prefilters, a branch-and-bound splits cubic
    cells of rotation-vector space, from the 64 cells of half-side pi/4
    that tile |w_i| <= pi (which covers SO(3)).  Every result carries the
    best centre margin seen and its rotation:

    - FITS as soon as a cell centre's margin exceeds DEFAULT_TOL.
    - A cell of half-side h is discarded once its centre margin + sqrt(3) h
      < -DEFAULT_TOL; other cells are split into 8.  NO_FIT, when no cell is
      left, is certified: the margin is 1-Lipschitz in rotation angle, and
      the angle between R(a) and R(b) is at most |a - b| (Hartley and Kahl,
      Global Optimization through Rotation Space Search, IJCV 2009).
    - INDETERMINATE when the half-side falls below `_T0_MIN_HALF_SIDE`, or
      when more than `_T0_MAX_LIVE` cells (a memory bound) survive a level.
    """
    total_area = polygon_area(poly)
    if total_area > T0_AREA + 1e-12:
        return T0FitResult(FitTag.NO_FIT, -(total_area - T0_AREA), None)
    diam = polygon_diameter(poly)
    if diam > T0_SIDE + DEFAULT_TOL:
        return T0FitResult(FitTag.NO_FIT, -0.5 * (diam - T0_SIDE), None)

    h = math.pi / 4
    centres = (2 * h * _CELL_CORNERS[:, None] + h * _CELL_CORNERS).reshape(-1, 3)
    best_margin, best_rot = -math.inf, None
    while True:
        mats = _quats_to_matrices(quat_from_rotvec(centres))
        margins = _t0_margin_for_matrices(mats, poly.matrix)
        k = int(np.argmax(margins))
        if margins[k] > best_margin:
            best_margin, best_rot = float(margins[k]), mats[k]
        if best_margin > DEFAULT_TOL:
            return T0FitResult(FitTag.FITS, best_margin, matrix_to_quat(best_rot))
        centres = centres[margins + math.sqrt(3.0) * h >= -DEFAULT_TOL]
        if len(centres) == 0:
            return T0FitResult(FitTag.NO_FIT, best_margin, matrix_to_quat(best_rot))
        if h < _T0_MIN_HALF_SIDE or len(centres) > _T0_MAX_LIVE:
            return T0FitResult(FitTag.INDETERMINATE, best_margin, matrix_to_quat(best_rot))
        h *= 0.5
        centres = (centres[:, None, :] + h * _CELL_CORNERS).reshape(-1, 3)


# ---------------------------------------------------------------------------
# General classification.


class GeneralKind(Enum):
    TRIHEDRAL = "TRIHEDRAL"
    IN_A0 = "IN_A0"
    NOT_IN_A0 = "NOT_IN_A0"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True, eq=False)
class GeneralClassification:
    kind: GeneralKind
    trihedral: Optional[AngleClass] = None
    fit: Optional[T0FitResult] = None
    note: str = ""


_NOT_IN_A0_NOTE = (
    "polygon fits inside the regular pi/3 triangle; this is only a necessary "
    "condition for an inscribed octahedron, not a sufficient one"
)


def classify_general(angle: SolidAngle) -> GeneralClassification:
    """Route trihedral angles to the exact classifier; for more edges,
    report whether the angle's polygon can be rotated into the regular
    pi/3 triangle (the cannot-be-placed angles are the benign ones for
    polytope-level existence)."""
    if angle.n_edges == 3:
        return GeneralClassification(GeneralKind.TRIHEDRAL, trihedral=classify_trihedral(angle))
    fit = fits_in_T0(angle.polygon)
    if fit.tag is FitTag.NO_FIT:
        return GeneralClassification(GeneralKind.IN_A0, fit=fit)
    if fit.tag is FitTag.FITS:
        return GeneralClassification(GeneralKind.NOT_IN_A0, fit=fit, note=_NOT_IN_A0_NOTE)
    return GeneralClassification(GeneralKind.INDETERMINATE, fit=fit)


# ---------------------------------------------------------------------------
# Deformation paths through the non-special set.


def deformation_path(tri: SphTriangle, steps: int = 60) -> list:
    """Discrete path of non-special triangles from `tri` to a triangle
    with a side safely above pi/3.

    Follows the two-phase recipe at the fixed vertex angle of v1, the
    vertex shared by the two longest sides c >= b: first grow b to c,
    then grow both equal sides together.  Each step is built from its
    two sides and that angle.  Every emitted triangle is re-verified
    non-special.
    """
    if not 2 <= steps <= 10_000:
        raise ValueError(f"a deformation path needs 2 to 10000 steps, got {steps}")
    start = placement_test(tri)
    if start.tag is not ClassTag.NON_SPECIAL:
        raise NotNonSpecial(f"input triangle classifies {start.tag.value}")
    k = _normalized_perm(tri.sides)
    c, b = tri.sides[_C[k]], tri.sides[_B[k]]
    if c > T0_SIDE + DEFAULT_TOL:
        return [tri]
    theta = vertex_angle(tri, _PERMS[k][0])
    target = T0_SIDE + 0.02
    len1 = c - b
    len2 = target - c
    total = len1 + len2
    path = [tri]
    for f in np.linspace(0.0, 1.0, steps)[1:]:
        g = f * total
        if g <= len1:
            l2, l3 = c, b + g
        else:
            l2 = l3 = c + (g - len1)
        step_tri = _pole_triangle(l2, l3, theta)
        verdict = placement_test(step_tri)
        if verdict.tag is not ClassTag.NON_SPECIAL:
            raise PathVerificationFailed(
                f"intermediate triangle at f={f:.4f} classified {verdict.tag.value} "
                f"(margin {verdict.margin:.3e})"
            )
        path.append(step_tri)
    return path
