"""Convex polytopes in R^3 with a synchronized halfspace / vertex
representation, incidence structure, per-vertex solid angles, the
inner-parallel-body smoothing, and exact distance machinery.

The smoothing of a polytope P at depth eps is the union of all eps-balls
contained in P; for convex P this equals the inner parallel body (every
facet pushed in by eps) expanded back by eps, which gives closed-form
signed distances and gradients without ever meshing the rounded body.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from .angles import SolidAngle
from .sphere import GeometryError, _as_unit

__all__ = [
    "Degenerate",
    "Inconsistent",
    "ConvexPolytope",
    "SmoothedBody",
    "Feature",
    "build",
    "build_from_vertices",
    "build_from_halfspaces",
    "is_simple",
    "solid_angle_at",
    "signed_distance_smoothed",
    "distance_to_boundary",
    "cube",
    "regular_tetrahedron",
    "regular_octahedron",
]

_REL_TOL = 1e-9
# Points per block of nearest_boundary; bounds its (points x features x 3) arrays.
_POINT_BLOCK = 1024


class Degenerate(GeometryError):
    """Input does not describe a bounded, full-dimensional convex body."""


class Inconsistent(GeometryError):
    """The halfspace and vertex representations disagree beyond tolerance."""


@dataclass(frozen=True, eq=False)
class Feature:
    """A boundary feature: kind is 'facet', 'edge' or 'vertex'."""

    kind: str
    index: int


# Feature kind names by the kind code that nearest_boundary returns.
FEATURE_KINDS = np.array(["facet", "edge", "vertex"], dtype=object)


class ConvexPolytope:
    """Immutable convex 3-polytope.

    Attributes
    ----------
    normals, offsets : minimal H-representation (unit outward normals,
        n . x <= offset), facets sorted lexicographically.
    vertices : V x 3 array, sorted lexicographically.
    facet_vertices : per facet, the vertex cycle ordered counterclockwise
        as seen from outside.
    vertex_facets : per vertex, sorted indices of incident facets.
    edges : sorted vertex-index pairs; edge_facets gives the two facets
        meeting at each edge.
    """

    __slots__ = (
        "normals",
        "offsets",
        "vertices",
        "facet_vertices",
        "vertex_facets",
        "edges",
        "edge_facets",
        "diameter",
        "inradius",
        "center",
        "_proj",
    )

    def __init__(self, normals, offsets, vertices, facet_vertices):
        self.normals = np.asarray(normals, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        self.vertices = np.asarray(vertices, dtype=float)
        self.facet_vertices = tuple(tuple(int(i) for i in cyc) for cyc in facet_vertices)
        for arr in (self.normals, self.offsets, self.vertices):
            arr.flags.writeable = False

        vf = [[] for _ in range(len(self.vertices))]
        for fi, cyc in enumerate(self.facet_vertices):
            for vi in cyc:
                vf[vi].append(fi)
        self.vertex_facets = tuple(tuple(sorted(s)) for s in vf)

        edge_map = {}
        for fi, cyc in enumerate(self.facet_vertices):
            for k in range(len(cyc)):
                key = tuple(sorted((cyc[k], cyc[(k + 1) % len(cyc)])))
                edge_map.setdefault(key, []).append(fi)
        self.edges = tuple(sorted(edge_map))
        self.edge_facets = tuple(tuple(sorted(edge_map[e])) for e in self.edges)
        if any(len(fs) != 2 for fs in self.edge_facets):
            raise Inconsistent("every edge of a closed polytope must bound exactly 2 facets")

        diffs = self.vertices[:, None, :] - self.vertices[None, :, :]
        self.diameter = float(np.sqrt((diffs**2).sum(axis=2)).max())
        center, inradius = _chebyshev(self.normals, self.offsets)
        self.center = center
        self.inradius = inradius
        self._proj = None
        self._validate()

    def _validate(self):
        tol = _REL_TOL * self.diameter
        slack = self.offsets[None, :] - self.vertices @ self.normals.T
        if slack.min() < -tol:
            raise Inconsistent("a vertex violates a halfspace beyond tolerance")
        tight_counts = (np.abs(slack) <= tol).sum(axis=1)
        if np.any(tight_counts < 3):
            raise Inconsistent("every vertex must have at least 3 tight halfspaces")
        sizes = np.array([len(cyc) for cyc in self.facet_vertices])
        if np.any(sizes < 3):
            raise Inconsistent(f"facet {np.argmax(sizes < 3)} has fewer than 3 vertices")
        facet_of = np.repeat(np.arange(len(sizes)), sizes)
        off_plane = np.abs(slack[np.concatenate(self.facet_vertices), facet_of]) > tol
        if off_plane.any():
            fi = facet_of[np.argmax(off_plane)]
            raise Inconsistent(f"facet {fi} vertex set is not coplanar with its halfspace")
        if not self.inradius > 1e-6 * self.diameter:
            raise Degenerate("polytope is not full-dimensional (inradius too small)")
        for vi in range(len(self.vertices)):
            solid_angle_at(self, vi)

    # -- queries ----------------------------------------------------------

    def contains(self, points, tol: float = 0.0) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        return (P @ self.normals.T - self.offsets[None, :]).max(axis=1) <= tol

    def _projection_data(self):
        """Built once: inward edge normals M of all facets, flat, with offsets
        a . m and each facet's first row; edge origins, unit directions, lengths."""
        if self._proj is None:
            cycles = self.facet_vertices
            anchors = self.vertices[[i for cyc in cycles for i in cyc]]
            ends = self.vertices[[i for cyc in cycles for i in cyc[1:] + cyc[:1]]]
            sizes = [len(cyc) for cyc in cycles]
            M = np.cross(np.repeat(self.normals, sizes, axis=0), ends - anchors)
            M /= np.linalg.norm(M, axis=1, keepdims=True)
            starts = np.cumsum([0] + sizes[:-1])
            E = np.array(self.edges)
            A = self.vertices[E[:, 0]]
            T = self.vertices[E[:, 1]] - A
            L = np.linalg.norm(T, axis=1)
            self._proj = (M, np.einsum("ij,ij->i", anchors, M), starts, A, T / L[:, None], L)
        return self._proj

    def _edge_feet(self, X):
        """(n, E, 3) nearest points of every edge segment to each point."""
        _, _, _, A, T, L = self._projection_data()
        s = np.clip(np.einsum("nek,ek->ne", X[:, None, :] - A, T), 0.0, L)
        return A + s[..., None] * T

    def nearest_boundary(self, points):
        """Nearest point of the boundary surface for each query point.

        Returns (dist, proj, kind, index), kind 0/1/2 for facet/edge/vertex,
        with tol = 1e-12 * diameter.  Band rule: proj is the first candidate
        (facet feet inside their polygon within tol, clamped edge feet, then
        vertices, lowest index first) whose distance is within tol of the
        smallest.  Feature rule: (kind, index) is the lowest-dimensional
        feature holding proj, lowest index first: a vertex within tol of it,
        else an edge within tol, else the chosen candidate (a facet, or an
        edge whose band rounding misses far from the origin).
        """
        X = np.atleast_2d(np.asarray(points, dtype=float))
        blocks = range(0, max(len(X), 1), _POINT_BLOCK)
        parts = [self._nearest_in_block(X[i : i + _POINT_BLOCK]) for i in blocks]
        return tuple(np.concatenate(a) for a in zip(*parts))

    def _nearest_in_block(self, X):
        M, Mc, starts, _, _, _ = self._projection_data()
        tol = 1e-12 * self.diameter
        n_f, n_e = len(self.normals), len(self.edges)
        rows = np.arange(len(X))

        t = X @ self.normals.T - self.offsets
        held = np.minimum.reduceat(X @ M.T - Mc, starts, axis=1) >= -tol
        feet = np.concatenate(
            [
                X[:, None, :] - t[..., None] * self.normals,
                self._edge_feet(X),
                np.broadcast_to(self.vertices, (len(X),) + self.vertices.shape),
            ],
            axis=1,
        )
        dist = np.linalg.norm(X[:, None, :] - feet, axis=2)
        dist[:, :n_f] = np.where(held, np.abs(t), np.inf)
        col = np.argmax(dist <= dist.min(axis=1, keepdims=True) + tol, axis=1)
        best_d, proj = dist[rows, col], feet[rows, col]

        on_vertex = np.linalg.norm(proj[:, None, :] - self.vertices, axis=2) <= tol
        on_edge = np.linalg.norm(proj[:, None, :] - self._edge_feet(proj), axis=2) <= tol
        own_kind = (col >= n_f).astype(int) + (col >= n_f + n_e)
        hit = [on_vertex.any(axis=1), on_edge.any(axis=1)]
        kind = np.select(hit, [2, 1], own_kind)
        own_index = col - np.array([0, n_f, n_f + n_e])[own_kind]
        index = np.select(hit, [on_vertex.argmax(axis=1), on_edge.argmax(axis=1)], own_index)
        return best_d, proj, kind, index

    def distance_and_projection(self, points):
        """Euclidean distance to the solid body (0 inside) and the
        projection onto it (the point itself when inside)."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        inside = self.contains(X)
        d, p, _, _ = self.nearest_boundary(X)
        d = np.where(inside, 0.0, d)
        p = np.where(inside[:, None], X, p)
        return d, p

    def to_dict(self) -> dict:
        return {
            "vertices": [[float(x) for x in v] for v in self.vertices],
            "halfspaces": [
                {"normal": [float(x) for x in n], "offset": float(d)}
                for n, d in zip(self.normals, self.offsets)
            ],
        }

    def __repr__(self):
        return (
            f"ConvexPolytope({len(self.vertices)} vertices, "
            f"{len(self.normals)} facets, {len(self.edges)} edges)"
        )


# ---------------------------------------------------------------------------
# Construction.


def _chebyshev(normals, offsets):
    n = len(normals)
    res = linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([normals, np.ones((n, 1))]),
        b_ub=offsets,
        bounds=[(None, None)] * 3 + [(0, None)],
        method="highs",
    )
    if not res.success:
        raise Degenerate("halfspace system is empty or unbounded")
    return res.x[:3], float(res.x[3])


def _assert_bounded(normals):
    for j in range(3):
        for sgn in (1.0, -1.0):
            c = np.zeros(3)
            c[j] = -sgn
            res = linprog(
                c=c,
                A_ub=normals,
                b_ub=np.zeros(len(normals)),
                bounds=[(-1, 1)] * 3,
                method="highs",
            )
            if not res.success or -res.fun > 1e-9:
                raise Degenerate("halfspace intersection is unbounded")


def build_from_vertices(points) -> ConvexPolytope:
    """Vertex input: convex hull, coplanar hull simplices merged into
    polygonal facets, interior points dropped."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3 or len(P) < 4:
        raise Degenerate("need at least 4 points in R^3")
    scale = float(np.linalg.norm(P - P.mean(axis=0), axis=1).max())
    if scale < 1e-12:
        raise Degenerate("points are coincident")
    try:
        hull = ConvexHull(P)
    except Exception as exc:
        raise Degenerate(f"convex hull failed (flat or degenerate input): {exc}") from exc
    if hull.volume < 1e-12 * scale**3:
        raise Degenerate("points do not span 3 dimensions")

    verts = P[hull.vertices]
    order = np.lexsort((verts[:, 2], verts[:, 1], verts[:, 0]))
    verts = verts[order]

    # Cluster hull simplex planes into facets.
    planes = []
    tol_n, tol_d = 1e-9, 1e-9 * scale
    for eq in hull.equations:
        n, d = eq[:3], -eq[3]
        n = n / np.linalg.norm(n)
        for k, (pn, pd) in enumerate(planes):
            if float(np.dot(pn, n)) > 1.0 - tol_n and abs(pd - d) < tol_d:
                break
        else:
            planes.append((n, d))
    normals = np.array([p[0] for p in planes])
    offsets = np.array([p[1] for p in planes])
    key = np.round(np.column_stack([normals, offsets / scale]), 9)
    order = np.lexsort(key.T[::-1])
    normals, offsets = normals[order], offsets[order]

    cycles = _facet_cycles(verts, normals, offsets, scale)
    return ConvexPolytope(normals, offsets, verts, cycles)


def _facet_cycles(verts, normals, offsets, scale):
    tol = _REL_TOL * scale
    cycles = []
    for n, d in zip(normals, offsets):
        idx = np.where(np.abs(verts @ n - d) <= tol)[0]
        if len(idx) < 3:
            raise Inconsistent("a facet plane is tight at fewer than 3 vertices")
        pts = verts[idx]
        centroid = pts.mean(axis=0)
        ref = pts[0] - centroid
        ref -= float(np.dot(ref, n)) * n
        ref = ref / np.linalg.norm(ref)
        up = np.cross(n, ref)
        ang = np.arctan2((pts - centroid) @ up, (pts - centroid) @ ref)
        cycles.append(tuple(idx[np.argsort(ang, kind="stable")]))
    return cycles


def build_from_halfspaces(normals, offsets) -> ConvexPolytope:
    """Halfspace input: vertex enumeration via the dual hull, redundant
    halfspaces pruned, then the standard vertex build."""
    N = np.asarray(normals, dtype=float)
    D = np.asarray(offsets, dtype=float).reshape(-1)
    if N.ndim != 2 or N.shape[1] != 3 or len(N) < 4 or len(N) != len(D):
        raise Degenerate("need at least 4 halfspaces (normal, offset)")
    norms = np.linalg.norm(N, axis=1)
    if norms.min() < 1e-14:
        raise Degenerate("zero normal in halfspace list")
    N = N / norms[:, None]
    D = D / norms
    _assert_bounded(N)
    interior, r = _chebyshev(N, D)
    if r <= 0:
        raise Degenerate("halfspace intersection has empty interior")
    from scipy.spatial import HalfspaceIntersection

    hs = HalfspaceIntersection(np.hstack([N, -D[:, None]]), interior)
    pts = hs.intersections
    scale = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    # Keep each point unless it lies within 1e-9 * scale of an earlier kept one.
    close = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) <= 1e-9 * scale
    close = np.triu(close, k=1)
    keep = np.ones(len(pts), dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        if keep[i]:
            keep &= ~close[i]
    return build_from_vertices(pts[keep])


def build(vertices=None, halfspaces=None) -> ConvexPolytope:
    """Build from either representation; the other one is completed."""
    if (vertices is None) == (halfspaces is None):
        raise ValueError("provide exactly one of vertices= or halfspaces=")
    if vertices is not None:
        return build_from_vertices(vertices)
    normals = [h[0] for h in halfspaces]
    offsets = [h[1] for h in halfspaces]
    return build_from_halfspaces(normals, offsets)


# ---------------------------------------------------------------------------
# Simple queries.


def is_simple(p: ConvexPolytope):
    """A polytope is simple when exactly 3 facets meet at every vertex.
    Returns (simple, offending_vertex_indices)."""
    offending = [vi for vi, fs in enumerate(p.vertex_facets) if len(fs) != 3]
    return (len(offending) == 0, offending)


def solid_angle_at(p: ConvexPolytope, vi: int) -> SolidAngle:
    """The solid angle of the polytope at a vertex: apex at the vertex,
    edges towards the adjacent vertices."""
    v = p.vertices[vi]
    neighbors = sorted(
        {e[0] if e[1] == vi else e[1] for e in p.edges if vi in e}
    )
    if len(neighbors) < 3:
        raise Inconsistent(f"vertex {vi} has fewer than 3 incident edges")
    dirs = [_as_unit(p.vertices[nb] - v) for nb in neighbors]
    return SolidAngle(v, dirs)


def distance_to_boundary(p: ConvexPolytope, x):
    """Unsigned distance from x to the boundary surface, with the feature
    that `ConvexPolytope.nearest_boundary` names for it."""
    d, _, kind, index = p.nearest_boundary(np.asarray(x, dtype=float).reshape(1, 3))
    return float(d[0]), Feature(FEATURE_KINDS[kind[0]], int(index[0]))


# ---------------------------------------------------------------------------
# Smoothing.


class SmoothedBody:
    """The union of all eps-balls contained in the base polytope,
    represented implicitly as inner parallel body + eps."""

    __slots__ = ("base", "epsilon", "inner_body")

    def __init__(self, base: ConvexPolytope, epsilon: float):
        if not 0 < epsilon < base.inradius:
            raise Degenerate(
                f"epsilon must lie in (0, inradius={base.inradius:.6g}), got {epsilon}"
            )
        self.base = base
        self.epsilon = float(epsilon)
        self.inner_body = build_from_halfspaces(base.normals, base.offsets - epsilon)

    def signed_distance(self, points):
        """r(x) = dist(x, inner body) - eps, whose zero set is exactly the
        smoothed boundary, and its gradient (unit outward away from the
        inner body, zero inside it).  Returns (r, grad) for a batch."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        d, proj = self.inner_body.distance_and_projection(X)
        grad = np.zeros_like(X)
        out = d > 0
        grad[out] = (X[out] - proj[out]) / d[out, None]
        return d - self.epsilon, grad


def signed_distance_smoothed(s: SmoothedBody, x):
    """Signed distance of a single point to the smoothed boundary and its
    gradient; negative inside the smoothed body."""
    r, g = s.signed_distance(np.asarray(x, dtype=float).reshape(1, 3))
    return float(r[0]), g[0]


# ---------------------------------------------------------------------------
# Stock shapes.


def cube(half: float = 1.0) -> ConvexPolytope:
    s = float(half)
    corners = [
        (x, y, z)
        for x in (-s, s)
        for y in (-s, s)
        for z in (-s, s)
    ]
    return build_from_vertices(np.array(corners))


def regular_tetrahedron(scale: float = 1.0) -> ConvexPolytope:
    s = float(scale)
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) * s
    return build_from_vertices(pts)


def regular_octahedron(scale: float = 1.0) -> ConvexPolytope:
    s = float(scale)
    pts = np.vstack([np.eye(3), -np.eye(3)]) * s
    return build_from_vertices(pts)
