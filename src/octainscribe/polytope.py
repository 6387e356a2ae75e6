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
from functools import cached_property
from itertools import product

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .angles import InvalidSolidAngle, SolidAngle
from .sphere import DEFAULT_TOL, GeometryError, _cross, _norm3

__all__ = [
    "Degenerate",
    "Inconsistent",
    "ConvexPolytope",
    "SmoothedBody",
    "Feature",
    "build_from_vertices",
    "build_from_halfspaces",
    "is_simple",
    "solid_angle_at",
    "cube",
    "regular_tetrahedron",
    "regular_octahedron",
]

_REL_TOL = 1e-9
# Points per block of the distance kernel; bounds its (points x features x 3) arrays.
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

    The constructor takes the corner table as the facet cycles end to end
    (cycles) and each cycle's first corner (starts).  Precondition: every
    cycle runs counterclockwise seen from outside and starts at its lowest
    vertex index.  `_plane_polytope` computes the cycles, and a closed-form
    inner body inherits its base's.  On one slack matrix at 1e-9 * diameter
    the constructor checks that no vertex lies outside a plane, that every
    corner's vertex lies on its facet's plane, that each vertex and each
    facet has at least 3 corners, and that every edge bounds exactly 2
    facets; then that the body is full-dimensional.  The builders validate
    outside input.  The array arguments are copied on entry, so the caller's
    arrays stay writeable and writing to them does not change the polytope.

    Attributes
    ----------
    normals, offsets : minimal H-representation (unit outward normals,
        n . x <= offset), facets sorted lexicographically.
    vertices : V x 3 array.  Builder output is sorted lexicographically; a
        closed-form inner body keeps its base's vertex order, so its corner
        table equals the base's.
    center, inradius : the Chebyshev ball (largest ball inside), from the builder.
    cycles, corner_facet, starts, following : the corner table, read-only.
        Corner c is vertex cycles[c] on facet corner_facet[c]; facet f's
        cycle starts at corner starts[f], at its lowest vertex index, and
        runs counterclockwise seen from outside by following.
    edge_array : read-only E x 2 array of sorted vertex-index pairs, sorted.
    """

    def __init__(self, normals, offsets, vertices, cycles, starts, center, inradius):
        self.normals = np.array(normals, dtype=float)
        self.offsets = np.array(offsets, dtype=float)
        self.vertices = np.array(vertices, dtype=float)
        self.center = np.array(center, dtype=float)
        self.inradius = float(inradius)
        cycles, starts = np.array(cycles, dtype=np.intp), np.array(starts, dtype=np.intp)
        sizes = np.diff(starts, append=len(cycles))
        facet = np.repeat(np.arange(len(starts)), sizes)

        self.diameter = float(_norm3(self.vertices[:, None, :] - self.vertices).max())
        tol = _REL_TOL * self.diameter
        slack = self.offsets - self.vertices @ self.normals.T
        if slack.min() < -tol:
            raise Inconsistent("a vertex violates a halfspace beyond tolerance")
        off_plane = np.abs(slack[cycles, facet]) > tol
        if off_plane.any():
            raise Inconsistent(f"facet {facet[off_plane.argmax()]} has a vertex off its plane")
        per_vertex = np.bincount(cycles, minlength=len(self.vertices))
        if sizes.min() < 3:
            raise Inconsistent(f"facet {np.argmin(sizes)} has fewer than 3 vertices")
        if per_vertex.min() < 3:
            raise Inconsistent(f"vertex {np.argmin(per_vertex)} lies on fewer than 3 facets")

        following = np.arange(1, len(cycles) + 1)
        following[starts + sizes - 1] = starts
        ends = cycles[following]
        n = len(self.vertices)
        keys, uses = np.unique(np.minimum(cycles, ends) * n + np.maximum(cycles, ends),
                               return_counts=True)
        edges = np.column_stack(np.divmod(keys, n))
        if np.any(uses != 2):
            raise Inconsistent("every edge of a closed polytope must bound exactly 2 facets")
        if not self.inradius > 1e-6 * self.diameter:
            raise Degenerate("polytope is not full-dimensional (inradius too small)")
        self.cycles, self.corner_facet, self.starts, self.edge_array = cycles, facet, starts, edges
        self.following = following
        for arr in (self.normals, self.offsets, self.vertices, self.center, cycles, facet,
                    starts, following, edges):
            arr.flags.writeable = False

    # -- queries ----------------------------------------------------------

    @cached_property
    def _projection_data(self):
        """The kernel's planes and segments.  Planes: the facet planes, then
        the inward edge normals m of all facets, one per corner, as the rows
        of [N; M] with offsets [d; a . m] for a corner's anchor a.  Segments:
        the edges, then the vertices as zero-length segments, with origins
        P = [A; V], unit directions U = [T / L; 0] and lengths [L; 0]."""
        anchors = self.vertices[self.cycles]
        ends = self.vertices[self.cycles[self.following]]
        M = _cross(self.normals[self.corner_facet], ends - anchors)
        M /= _norm3(M)[:, None]
        A = self.vertices[self.edge_array[:, 0]]
        T = self.vertices[self.edge_array[:, 1]] - A
        L = _norm3(T)
        n = len(self.vertices)
        return (
            np.concatenate([self.normals, M]),
            np.concatenate([self.offsets, np.einsum("ij,ij->i", anchors, M)]),
            np.concatenate([A, self.vertices]),
            np.concatenate([T / L[:, None], np.zeros((n, 3))]),
            np.concatenate([L, np.zeros(n)]),
        )

    def _segment_feet(self, X):
        """(n, E + V, 3) nearest points of every segment, edges then
        vertices, to each point; a vertex's foot is the vertex."""
        _, _, P, U, L = self._projection_data
        s = np.einsum("nek,ek->ne", X[:, None, :] - P, U)
        # np.clip's bits, without its Python wrapper.  The minimum writes a
        # new array, as np.clip does: clamped fully in place, a query of
        # 100,000 points on a 64-facet body took 60% more page faults and
        # about 10% longer (x86-64 Linux).
        s = np.minimum(np.maximum(s, 0.0, out=s), L)
        return P + s[..., None] * U

    @staticmethod
    def _per_block(kernel, X):
        """kernel(X) in blocks of _POINT_BLOCK points: one call when X fits
        in a block (also when it is empty), else one per block, with each
        output concatenated."""
        if len(X) <= _POINT_BLOCK:
            return kernel(X)
        parts = [kernel(X[i : i + _POINT_BLOCK]) for i in range(0, len(X), _POINT_BLOCK)]
        return tuple(map(np.concatenate, zip(*parts)))

    def _nearest_in_block(self, X):
        """Band rule: proj is the first candidate (column col) within tol =
        1e-12 * diameter of the nearest: facet feet inside their polygon within
        tol, clamped edge feet, then vertices, lowest index first.  Returns
        (dist, proj, col, inside); inside is whether every t <= 0."""
        planes, plane_offsets, _, _, _ = self._projection_data
        n_f = len(self.normals)
        tol = 1e-12 * self.diameter
        rows = np.arange(len(X))

        h = X @ planes.T - plane_offsets
        t = h[:, :n_f]
        held = np.minimum.reduceat(h[:, n_f:], self.starts, axis=1) >= -tol
        segment = self._segment_feet(X)
        feet = np.concatenate([X[:, None, :] - t[..., None] * self.normals, segment], axis=1)
        facet_d = np.where(held, np.abs(t), np.inf)
        dist = np.concatenate([facet_d, _norm3(X[:, None, :] - segment)], axis=1)
        col = np.argmax(dist <= np.minimum.reduce(dist, axis=1, keepdims=True) + tol, axis=1)
        return dist[rows, col], feet[rows, col], col, np.maximum.reduce(t, axis=1) <= 0

    def _features(self, proj, col):
        """Feature rule: (kind, index) of the lowest-dimensional feature holding
        proj, lowest index first: a vertex within tol, else an edge within tol,
        else candidate col (a facet, or an edge its band rounding misses)."""
        tol = 1e-12 * self.diameter
        n_f, n_e = len(self.normals), len(self.edge_array)
        on = _norm3(proj[:, None, :] - self._segment_feet(proj)) <= tol
        on_edge, on_vertex = on[:, :n_e], on[:, n_e:]
        own_kind = (col >= n_f).astype(int) + (col >= n_f + n_e)
        own_index = col - np.array([0, n_f, n_f + n_e])[own_kind]
        vertex, edge = on_vertex.any(axis=1), on_edge.any(axis=1)
        kind = np.where(vertex, 2, np.where(edge, 1, own_kind))
        index = np.where(vertex, on_vertex.argmax(axis=1), np.where(edge, on_edge.argmax(axis=1), own_index))
        return kind, index

    def nearest_boundary(self, points):
        """Nearest boundary point of each query point: (dist, proj, kind, index),
        proj by the band rule (`_nearest_in_block`) and (kind, index), kind
        0/1/2 for facet/edge/vertex, by the feature rule (`_features`)."""
        def block(Y):
            d, proj, col, _ = self._nearest_in_block(Y)
            return (d, proj, *self._features(proj, col))

        return self._per_block(block, np.atleast_2d(np.asarray(points, dtype=float)))

    def signed_distance(self, points):
        """Signed distance to the boundary surface (negative inside) and its
        gradient, for a batch of points.  Where the distance is at most
        1e-300 the point is on the boundary: the gradient is the outward
        normal of the kernel's candidate when that is a facet (the true
        gradient on a facet's interior, a subgradient elsewhere), else 0.
        It names no boundary feature."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        d, proj, col, inside = self._per_block(self._nearest_in_block, X)
        sign = np.where(inside, -1.0, 1.0)
        grad = (X - proj) / (sign * np.maximum(d, 1e-300))[:, None]
        if np.minimum.reduce(d, initial=np.inf) <= 1e-300:  # rare: a point on the boundary
            on = d <= 1e-300
            grad[on] = 0.0
            facet = on & (col < len(self.normals))
            grad[facet] = self.normals[col[facet]]
        return sign * d, grad

    def __repr__(self):
        return (
            f"ConvexPolytope({len(self.vertices)} vertices, "
            f"{len(self.normals)} facets, {len(self.edge_array)} edges)"
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
        far = " (HiGHS reads offsets of 1e20 or more as infinite)" if np.abs(offsets).max() >= 1e20 else ""
        raise Degenerate("halfspace system is empty or unbounded" + far)
    return res.x[:3], float(res.x[3])


def _keep_first(close):
    """Mask keeping item j unless close[i, j] for a kept item i < j."""
    close = np.triu(close, k=1)
    keep = np.ones(len(close), dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        if keep[i]:
            keep &= ~close[i]
    return keep


def _hull_planes(P):
    """The facet planes of the points' convex hull (unit normals, offsets):
    each set of coplanar hull simplices gives its first plane, and the
    planes are sorted as the builders sort facets."""
    with np.errstate(over="ignore"):
        scale = float(_norm3(P - P.mean(axis=0)).max())
    if not 1e-12 <= scale < np.inf:
        raise Degenerate("points are coincident" if scale < 1e-12 else "squared distances between the points overflow")
    try:
        hull = ConvexHull(P)
    except Exception as exc:
        raise Degenerate(f"convex hull failed (flat or degenerate input): {exc}") from exc
    if hull.volume < 1e-12 * scale**3:
        raise Degenerate("points do not span 3 dimensions")
    N = hull.equations[:, :3]
    N = N / np.sqrt(np.vecdot(N, N))[:, None]
    D = -hull.equations[:, 3]
    keep = _keep_first((N @ N.T > 1.0 - 1e-9) & (np.abs(D[:, None] - D) < 1e-9 * scale))
    order = np.lexsort(np.round(np.column_stack([N[keep], D[keep] / scale]), 9).T[::-1])
    return N[keep][order], D[keep][order]


def _plane_polytope(N, D, ball):
    """The polytope {x : N x <= D} (unit normals) with Chebyshev ball
    (center, inradius), from one halfspace intersection about the center.
    Points within 1e-9 * scale of an earlier kept one merge into it, and a
    vertex lies on the planes of the dual facets of every point merged into
    it.  The first plane of each vertex set of at least 3 is a facet, so a
    repeated plane and one tight only at a vertex or along an edge drop out.
    The region is bounded exactly when every dual facet's offset, which is
    -1 / |x - center| at a vertex x, is negative."""
    try:
        # On an unbounded region scipy divides by a dual offset of zero.
        with np.errstate(divide="ignore", invalid="ignore"):
            hs = HalfspaceIntersection(np.hstack([N, -D[:, None]]), ball[0])
    except QhullError as exc:
        raise Degenerate("halfspace intersection is unbounded (coplanar normals)") from exc
    if not hs.dual_equations[:, 3].max() < 0:
        raise Degenerate("halfspace intersection is unbounded")
    pts = hs.intersections
    scale = float(_norm3(pts - pts.mean(axis=0)).max())
    close = _norm3(pts[:, None, :] - pts) <= 1e-9 * scale
    keep = _keep_first(close)
    # Each point's vertex: the first kept point close to it.
    owner = np.repeat(np.argmax(close[:, keep], axis=1), [len(f) for f in hs.dual_facets])
    tight = np.zeros((len(N), keep.sum()), dtype=bool)
    tight[np.concatenate(hs.dual_facets), owner] = True
    # The first plane of each distinct vertex set, the sets compared as bytes.
    packed = np.packbits(tight, axis=1)
    _, first = np.unique(packed.view(f"V{packed.shape[1]}")[:, 0], return_index=True)
    facets = np.sort(first[tight[first].sum(axis=1) >= 3])
    facets = facets[np.lexsort(np.round(np.column_stack([N[facets], D[facets] / scale]), 9).T[::-1])]
    V = pts[keep]
    rows = np.lexsort(V.T[::-1])
    V, normals, incidence = V[rows], N[facets], tight[np.ix_(facets, rows)].T
    return ConvexPolytope(normals, D[facets], V, *_facet_cycles(V, normals, incidence), *ball)


def _facet_cycles(V, N, incidence):
    """Every facet's vertex cycle, counterclockwise seen from outside and
    starting at its lowest vertex index, by angle about the facet centroid
    from that vertex: (cycles end to end, each cycle's start)."""
    facet, vertex = np.nonzero(incidence.T)
    sizes = np.bincount(facet, minlength=len(N))
    starts = np.cumsum(sizes) - sizes
    rel = V[vertex] - (np.add.reduceat(V[vertex], starts) / sizes[:, None])[facet]
    ref = rel[starts]
    up = _cross(N, ref)
    ang = np.arctan2(np.vecdot(rel, up[facet]), np.vecdot(rel, ref[facet])) % (2 * np.pi)
    ang[starts] = -1.0
    return vertex[np.lexsort((ang, facet))], starts


def _check_vertex_cones(p: ConvexPolytope):
    """Raise InvalidSolidAngle unless the cone at every vertex is a valid
    solid angle, as `SolidAngle` would judge it, in one array pass.

    A corner is a vertex v on a facet f, between its neighbours u and w on
    f's cycle; the edges vu and vw are two consecutive edges of v's cone.
    Band rule, as `SphPolygon` draws it: a corner is degenerate when
    unit(u - v) and unit(w - v) lie less than DEFAULT_TOL apart or their
    cross product has norm below 1e-12 (its "coincide" and "antipodal"
    tests), and the cone is strictly convex only when, at every corner,
    every other neighbour x of v has margin -n_f . (x - v) / |x - v| above
    DEFAULT_TOL (its side-normal dot, with f's outward normal n_f in place
    of the cross product of the two unit edges).  Strict convexity implies
    salience (see `hemisphere_axis`)."""
    V, N, at, facet = p.vertices, p.normals, p.cycles, p.corner_facet
    # Corner c: vertex at[c] on facet facet[c], between prev[c] and nxt[c].
    prev, nxt = at[np.argsort(p.following)], at[p.following]
    a, b = V[prev] - V[at], V[nxt] - V[at]
    a /= np.sqrt(np.vecdot(a, a))[:, None]
    b /= np.sqrt(np.vecdot(b, b))[:, None]

    lens = _norm3(_cross(a, b))
    angle = np.arctan2(lens, np.vecdot(a, b))
    bad = np.flatnonzero((angle < DEFAULT_TOL) | (lens < 1e-12))
    if bad.size:
        c = bad[0]
        raise InvalidSolidAngle(
            f"vertex {at[c]}: its edges along facet {facet[c]} coincide or are "
            f"antipodal (angle {angle[c]:.3g})"
        )

    # Every ordered pair (c, d) of corners at one vertex.  Each neighbour of
    # the vertex is nxt of exactly one corner there, so nxt[d] runs over the
    # off-side neighbours of corner c when d != c and nxt[d] != prev[c].
    per_vertex = np.bincount(at, minlength=len(V))
    reps = per_vertex[at]
    c = np.repeat(np.arange(len(at)), reps)
    first = (np.cumsum(per_vertex) - per_vertex)[at] - (np.cumsum(reps) - reps)
    d = np.argsort(at, kind="stable")[np.arange(len(c)) + np.repeat(first, reps)]
    off = (d != c) & (nxt[d] != prev[c])
    c, d = c[off], d[off]
    margin = -np.vecdot(N[facet[c]], b[d])
    worst = np.argmin(margin)
    if margin[worst] <= DEFAULT_TOL:
        raise InvalidSolidAngle(
            f"vertex {at[c[worst]]}: cone is not strictly convex at facet "
            f"{facet[c[worst]]} (margin {margin[worst]:.3g} to vertex {nxt[d[worst]]})"
        )


def build_from_vertices(points) -> ConvexPolytope:
    """Vertex input: the hull's facet planes, checked to be finite and
    full-dimensional, one LP on them, then the polytope of those planes,
    checked to have a valid solid angle at every vertex."""
    try:
        P = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise Degenerate(f"vertex coordinates must be numbers ({exc})") from exc
    if P.ndim != 2 or P.shape[1] != 3 or len(P) < 4 or not np.isfinite(P).all():
        raise Degenerate("need at least 4 points in R^3, all finite")
    N, D = _hull_planes(P)
    p = _plane_polytope(N, D, _chebyshev(N, D))
    _check_vertex_cones(p)
    return p


def build_from_halfspaces(normals, offsets) -> ConvexPolytope:
    """Halfspace input: checked to be finite with a nonempty interior (one
    LP, whose ball the body keeps), then the rows' polytope, which checks
    boundedness, checked to have a valid solid angle at every vertex."""
    try:
        N = np.asarray(normals, dtype=float)
        D = np.asarray(offsets, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise Degenerate(f"halfspace coefficients must be numbers ({exc})") from exc
    if N.ndim != 2 or N.shape[1] != 3 or len(N) < 4 or len(N) != len(D):
        raise Degenerate("need at least 4 halfspaces (normal, offset)")
    if not np.isfinite(np.column_stack([N, D])).all():
        raise Degenerate("halfspace coefficients must be finite")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(N, axis=1)
    if not (norms.min() >= 1e-14 and norms.max() < np.inf):
        raise Degenerate("zero normal in halfspace list" if norms.min() < 1e-14 else "a normal's squared norm overflows")
    with np.errstate(over="ignore"):
        D = D / norms
    if not np.isfinite(D).all():
        raise Degenerate("an offset over its normal's length overflows")
    N = N / norms[:, None]
    interior, r = _chebyshev(N, D)
    if r <= 0:
        raise Degenerate("halfspace intersection has empty interior")
    p = _plane_polytope(N, D, (interior, r))
    _check_vertex_cones(p)
    return p


# ---------------------------------------------------------------------------
# Simple queries.


def is_simple(p: ConvexPolytope):
    """A polytope is simple when exactly 3 facets meet at every vertex.
    Returns (simple, offending_vertex_indices)."""
    offending = np.flatnonzero(np.bincount(p.cycles, minlength=len(p.vertices)) != 3).tolist()
    return (len(offending) == 0, offending)


def solid_angle_at(p: ConvexPolytope, vi: int) -> SolidAngle:
    """The solid angle of the polytope at a vertex: apex at the vertex,
    edges towards the adjacent vertices."""
    if not 0 <= vi < len(p.vertices):
        raise GeometryError(f"vertex index {vi} is out of range [0, {len(p.vertices)})")
    v = p.vertices[vi]
    E = p.edge_array
    # Edges are sorted pairs in sorted order, so the neighbours come out sorted.
    neighbors = E[:, ::-1][E == vi]
    dirs = p.vertices[neighbors] - v
    # Unit rows with the bits of `_as_unit`, which np.vecdot's norms give.
    return SolidAngle(v, dirs / np.sqrt(np.vecdot(dirs, dirs))[:, None])


# Kept only because the benchmark tracer wraps it; no production path calls it.
def distance_to_boundary(p: ConvexPolytope, x):
    """Unsigned distance from x to the boundary surface, with the feature
    that `ConvexPolytope.nearest_boundary` names for it."""
    d, _, kind, index = p.nearest_boundary(np.asarray(x, dtype=float).reshape(1, 3))
    return float(d[0]), Feature(FEATURE_KINDS[kind[0]], int(index[0]))


# ---------------------------------------------------------------------------
# Smoothing.


class SmoothedBody:
    """The union of all eps-balls contained in the base polytope,
    represented implicitly as inner parallel body + eps.  The inner body is
    built from the validated base with no LP and no input check: its
    Chebyshev ball is the base's, shrunk by eps about the same centre.

    Inner body of a simple base, in closed form: each base vertex v lies on
    exactly three facets with normals N_v and offsets d_v, and moves to
    v(eps) = N_v^-1 (d_v - eps), all V of them from one batched solve.
    Band rule: if every v(eps) has slack above 1e-9 * base diameter on every
    plane it does not lie on, the v(eps) are the vertices of the inner body
    and it has the base's combinatorial type.  Each v(eps) is then a vertex,
    and each base edge vw becomes the edge v(eps)w(eps), on two shifted
    planes and no other, so every v(eps) keeps its three edges; the graph of
    a polytope is connected (Balinski 1961), so there is no other vertex.
    Each edge keeps its direction, so each facet cycle keeps its order and
    orientation: the inner body keeps the base's vertex order and corner
    table (`cycles`, `starts`).  A non-simple base, and a rung where some
    v(eps) fails the band, take the hull path: one halfspace intersection
    of the shifted planes, whose dual facets give the incidence."""

    __slots__ = ("base", "epsilon", "inner_body")

    def __init__(self, base: ConvexPolytope, epsilon: float):
        if not 0 < epsilon < base.inradius:
            raise Degenerate(
                f"epsilon must lie in (0, inradius={base.inradius:.6g}), got {epsilon}"
            )
        self.base = base
        self.epsilon = float(epsilon)
        ball = (base.center, base.inradius - epsilon)
        self.inner_body = _closed_form_inner(base, epsilon, ball)
        if self.inner_body is None:
            self.inner_body = _plane_polytope(base.normals, base.offsets - epsilon, ball)

    def signed_distance(self, points):
        """r(x) = dist(x, inner body) - eps, whose zero set is exactly the
        smoothed boundary, and its gradient (unit outward away from the
        inner body, the inner body's on its boundary, zero inside it).
        Returns (r, grad) for a batch."""
        d, grad = self.inner_body.signed_distance(points)
        return np.maximum(d, 0.0) - self.epsilon, np.where(d[:, None] >= 0, grad, 0.0)


def _closed_form_inner(p: ConvexPolytope, eps: float, ball):
    """p's inner parallel body at eps, with Chebyshev ball `ball`, when p is
    simple and every shifted vertex passes the band rule of `SmoothedBody`;
    else None."""
    if not is_simple(p)[0]:
        return None
    n = len(p.vertices)
    facets = p.corner_facet[np.argsort(p.cycles, kind="stable")].reshape(n, 3)
    offsets = p.offsets - eps
    x = np.linalg.solve(p.normals[facets], offsets[facets][..., None])[..., 0]
    slack = offsets - x @ p.normals.T
    slack[np.arange(n)[:, None], facets] = np.inf
    if not slack.min() > 1e-9 * p.diameter:
        return None
    return ConvexPolytope(p.normals, offsets, x, p.cycles, p.starts, *ball)


# ---------------------------------------------------------------------------
# Stock shapes.


def cube() -> ConvexPolytope:
    return build_from_vertices(np.array(list(product((-1.0, 1.0), repeat=3))))


def regular_tetrahedron() -> ConvexPolytope:
    return build_from_vertices(np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float))


def regular_octahedron() -> ConvexPolytope:
    return build_from_vertices(np.vstack([np.eye(3), -np.eye(3)]))
