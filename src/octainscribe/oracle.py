"""Brute-force reference implementations used only for cross-validation.

Nothing here shares solver or projection code with the production path:
the direct search enumerates vertex-to-facet assignments and scans
rotation space with its own linear algebra, membership enumerates the
projections onto the flats of 1 to 3 shifted facet planes, and solid-angle
areas come from Monte-Carlo sampling.  Slower and simpler on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .angles import SolidAngle
from .polytope import ConvexPolytope
from .pose import UNIT_VERTICES, OctahedronPose, pose_distance
from .rotations import OCTA_GROUP, matrix_to_quat, quat_to_matrix, super_fibonacci_rotations

__all__ = [
    "DirectSearchConfig",
    "DirectSearchResult",
    "direct_angle_search",
    "inscribed_in_cone_check",
    "membership_oracle_batch",
    "mc_solid_angle_area",
]


# ---------------------------------------------------------------------------
# Direct search for octahedra inscribed in a trihedral angle's boundary.


_N_ROTATIONS = 400      # rotation samples per assignment
_REFINE_TOP = 4         # local refinements per assignment
_MAX_NFEV = 150         # residual evaluations per refined candidate
_PLANE_TOL = 1e-9       # vertex-to-plane acceptance (relative)
_SECTOR_TOL = 1e-9      # sector membership slack (relative)
_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class DirectSearchConfig:
    stop_at_first: bool = False     # stop after one verified pose


@dataclass(frozen=True, eq=False)
class DirectSearchResult:
    poses: list
    metadata: dict

    def __bool__(self):
        return bool(self.poses)


def _label_permutations():
    """The 24 permutations of the 6 vertex labels induced by the
    octahedron's rotation group."""
    perms = []
    for g in OCTA_GROUP:
        images = UNIT_VERTICES @ g.T
        perm = []
        for img in images:
            matches = np.where(np.abs(UNIT_VERTICES - img).sum(axis=1) < 1e-9)[0]
            perm.append(int(matches[0]))
        perms.append(tuple(perm))
    return perms


_LABEL_PERMS = _label_permutations()


def _assignments():
    """Vertex-to-facet assignments with per-facet counts (3,2,1) in any
    facet order, or (2,2,2), modulo the octahedron's rotation group."""
    raw = []
    labels = range(6)
    for counts in sorted(set(permutations((3, 2, 1)))) + [(2, 2, 2)]:
        for grp0 in combinations(labels, counts[0]):
            rest = [l for l in labels if l not in grp0]
            for grp1 in combinations(rest, counts[1]):
                grp2 = tuple(l for l in rest if l not in grp1)
                sigma = [0] * 6
                for l in grp1:
                    sigma[l] = 1
                for l in grp2:
                    sigma[l] = 2
                raw.append(tuple(sigma))
    seen = set()
    unique = []
    for sigma in raw:
        canon = min(tuple(sigma[p[i]] for i in range(6)) for p in _LABEL_PERMS)
        if canon not in seen:
            seen.add(canon)
            unique.append(canon)
    return unique


_ASSIGNMENTS = _assignments()


def _sector_frames(angle: SolidAngle):
    E = angle.edges
    n = len(E)
    frames = []
    for i in range(n):
        ea, eb = E[i], E[(i + 1) % n]
        nrm = np.cross(ea, eb)
        nrm = nrm / np.linalg.norm(nrm)
        if float(np.dot(nrm, angle.axis)) > 0:
            nrm = -nrm
        frames.append((np.linalg.inv(np.column_stack([ea, eb, nrm])), nrm))
    return frames


@lru_cache(maxsize=1)
def _rotation_grid():
    """The search grid's n = _N_ROTATIONS rotation matrices (n, 3, 3) and
    the unit vertices each one turns to (n, 6, 3)."""
    mats = np.array([quat_to_matrix(q) for q in super_fibonacci_rotations(_N_ROTATIONS)])
    ru = np.einsum("kab,jb->kja", mats, UNIT_VERTICES)
    mats.flags.writeable = ru.flags.writeable = False
    return mats, ru


def direct_angle_search(
    angle: SolidAngle, cfg: DirectSearchConfig = DirectSearchConfig()
) -> DirectSearchResult:
    """Search for regular octahedra inscribed in the boundary of a
    trihedral angle by brute force over the two combinatorial patterns:
    counts (3, 2, 1) across the facets in any order, or (2, 2, 2).

    For every assignment the scale is fixed to 1 (inscribed octahedra of
    a cone come in homothety families) and the apex-relative center that
    best satisfies the six plane conditions is a linear least-squares
    solve per rotation, so the residuals are one linear map of the turned
    unit vertices (`_plane_system`).  Rotation space is scanned on a
    deterministic grid, scored against all assignments in one product,
    and each assignment's `_REFINE_TOP` best rotations are polished
    together, all assignments at once, by one batched Levenberg-Marquardt
    solve (`least_squares`) in which each candidate may spend `_MAX_NFEV`
    residual evaluations.  A candidate stops early once its cost has not
    halved over the last `_STALL` of them, or once it is stationary: every
    column of its Jacobian is nearly orthogonal to its residual.  That
    loses no pose: a candidate heading for an inscribed octahedron has
    zero residual and converges superlinearly, while one whose cost stalls
    above the solver's floor, or whose gradient vanishes there, sits at a
    local minimum of positive cost and cannot pass the 1e-9 plane test.
    The candidates are then verified against plane and sector-membership
    tolerances in scan order: assignment, then grid rank.  An empty result
    is resolution-limited evidence of absence, quantified in the metadata,
    not a proof.
    """
    if angle.n_edges != 3:
        raise ValueError("direct search handles trihedral angles only")
    frames = _sector_frames(angle)
    normals = np.array([f[1] for f in frames])
    inverses = np.array([f[0] for f in frames])
    mats, RU = _rotation_grid()

    sigmas = np.array(_ASSIGNMENTS)
    maps = _plane_system(normals[sigmas], inverses[sigmas])
    r = _residuals(RU.reshape(1, -1, 18), maps)[0]
    starts = _smallest(np.einsum("aki,aki->ak", r, r), _REFINE_TOP)
    owner = np.repeat(np.arange(len(sigmas)), _REFINE_TOP)
    M = maps[owner]
    rotations = least_squares(mats[starts.ravel()], M, _MAX_NFEV).rotations

    ru = _turned_vertices(rotations)
    c = _residuals(ru.reshape(-1, 1, 18), M)[1][:, 0]
    X = c[:, None, :] + ru
    span = np.linalg.norm(X, axis=2).max(axis=1)
    alpha, beta, gamma = np.einsum("kjab,kjb->akj", inverses[sigmas[owner]], X)
    lim = span[:, None]
    plane_ok = np.abs(gamma) <= _PLANE_TOL * lim
    sector_ok = (alpha >= -_SECTOR_TOL * lim) & (beta >= -_SECTOR_TOL * lim)
    verified = (span >= 1e-9) & (plane_ok & sector_ok).all(axis=1)

    found = []
    for k in np.flatnonzero(verified):
        t = 1.0 / span[k]
        pose = OctahedronPose(angle.apex + t * c[k], matrix_to_quat(rotations[k]), t)
        if any(pose_distance(pose, p) < _DEDUP_TOL for p in found):
            continue
        found.append(pose)
        if cfg.stop_at_first:
            return DirectSearchResult(found, _metadata(int(owner[k]) + 1, early=True))
    return DirectSearchResult(found, _metadata(len(_ASSIGNMENTS), early=False))


def _smallest(scores, k: int):
    """argsort(scores, axis=1, kind="stable")[:, :k], ties included, without
    sorting whole rows: partition, then sort the k kept by (score, index).
    A row whose k-th score is tied may have kept a later index than the
    stable order would, and only such a row is sorted in full."""
    kept = np.sort(np.argpartition(scores, k - 1, axis=1)[:, :k], axis=1)
    values = np.take_along_axis(scores, kept, axis=1)
    kept = np.take_along_axis(kept, np.argsort(values, axis=1, kind="stable"), axis=1)
    tied = (scores <= values.max(axis=1, keepdims=True)).sum(axis=1) > k
    kept[tied] = np.argsort(scores[tied], axis=1, kind="stable")[:, :k]
    return kept


def _metadata(tested: int, early: bool) -> dict:
    return {
        "assignments_tested": tested,
        "assignments_total": len(_ASSIGNMENTS),
        "n_rotations": _N_ROTATIONS,
        "refine_top": _REFINE_TOP,
        "plane_tol": _PLANE_TOL,
        "sector_tol": _SECTOR_TOL,
        "stopped_at_first": early,
        "note": "empty result is resolution-limited, not a nonexistence proof",
    }


def _plane_system(A, inverses):
    """What an assignment fixes, as one linear map M (18 x 21): the six
    turned unit vertices R u_j of a rotation, flattened, times M give the 6
    plane rows, the 12 hinge rows before their min(., 0) and the center c.
    With A (6 x 3) the facet normal of each vertex, b_j = -A_j . R u_j; c
    is the least-squares solve pinv(A) b of the six plane conditions, the
    plane rows are the residual b - A c, and the hinge rows of vertex j are
    the first two coordinates of c + R u_j in its inverse sector frame
    (inverses, 6 x 3 x 3).  Leading axes of A and inverses are kept, one
    map per assignment."""
    to_b = -(np.eye(6)[:, None, :] * A[..., None]).reshape(*A.shape[:-2], 18, 6)
    to_c = to_b @ np.linalg.pinv(A).swapaxes(-1, -2)
    rows = inverses[..., :2, :].swapaxes(-1, -2)
    own = (np.eye(6)[:, None, :, None] * rows[..., None, :]).reshape(*A.shape[:-2], 18, 12)
    to_h = to_c @ rows.swapaxes(-2, -3).reshape(*A.shape[:-2], 3, 12) + own
    return np.concatenate([to_b - to_c @ A.swapaxes(-1, -2), to_h, to_c], axis=-1)


def _turned_vertices(R):
    """R u_j for every unit vertex u_j, (K, 6, 3)."""
    return (R @ UNIT_VERTICES.T).transpose(0, 2, 1)


def _residuals(ru, M):
    """Residuals at scale 1, (..., n, 18): the 6 plane rows, then the 12
    hinge rows min(alpha, 0), min(beta, 0) of each vertex's sector
    coordinates; and the centers, (..., n, 3).  ru (..., n, 18) are the
    flattened turned unit vertices of the rotations, M (..., 18, 21) the
    maps of `_plane_system`, so one product serves both the rotation grid
    against every assignment, (1, n, 18) @ (a, 18, 21), and each candidate
    against its own, (K, 1, 18) @ (K, 18, 21)."""
    out = ru @ M
    np.minimum(out[..., 6:18], 0.0, out=out[..., 6:18])
    return out[..., :18], out[..., 18:]


def _jacobian(ru, M, r):
    """d r / d w (K, 18, 3) for the left update R <- Q(w) R at w = 0.

    d(R u_j) / d w_i = e_i x R u_j, which M takes to the rows; a hinge row
    moves only while it is active (r < 0).  A cross product with a
    coordinate axis is a signed permutation, e_0 x b = (0, -b_2, b_1) and so
    on, so the components of R u_j go, with their signs, into a zeroed
    array: exact, and cheaper than a cross product."""
    turn = np.zeros((len(ru), 3, 6, 3))
    neg = -ru
    turn[:, 0, :, 1], turn[:, 0, :, 2] = neg[..., 2], ru[..., 1]
    turn[:, 1, :, 0], turn[:, 1, :, 2] = ru[..., 2], neg[..., 0]
    turn[:, 2, :, 0], turn[:, 2, :, 1] = neg[..., 1], ru[..., 0]
    J = (turn.reshape(-1, 3, 18) @ M[:, :, :18]).transpose(0, 2, 1)
    J[:, 6:] *= (r[:, 6:] < 0.0)[..., None]
    return J


def _cross(a, b):
    """Cross product over the last axis, with broadcasting.  On these
    small arrays np.cross spends more on its axis handling than on the
    products, and the LM loop takes two per iteration (`_turn`)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(c0.shape + (3,))
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _turn(w, R):
    """Q(w) R (K, 3, 3) for the unit quaternions [1, w/2] / norm: each
    column x of R goes to x + s (v x x + v x (v x x)) with v = w/2 and
    s = 2 / (1 + |v|^2), which is x + w x x to first order."""
    v = 0.5 * w[:, None, :]
    s = 2.0 / (1.0 + np.einsum("kai,kai->k", v, v))[:, None, None]
    cols = R.transpose(0, 2, 1)
    u = _cross(v, cols)
    return (cols + s * (u + _cross(v, u))).transpose(0, 2, 1)


def _rows(R, M):
    """The residuals (K, 18) and their Jacobian (K, 18, 3) at rotations R."""
    ru = _turned_vertices(R)
    r = _residuals(ru.reshape(-1, 1, 18), M)[0][:, 0]
    return r, _jacobian(ru, M, r)


@dataclass(frozen=True, eq=False)
class BatchSolution:
    rotations: np.ndarray   # (K, 3, 3), in the order of the starts
    nfev: int               # residual evaluations, summed over candidates


# A candidate stops once its residual norm is below 1e-15 (the octahedron
# has scale 1, so every span is at least 1), its step is below _STEP_FLOOR
# radians, its cost has not halved over the last _STALL evaluations, or
# |(J^T r)_i| <= _STATIONARY_COS * |J_:,i| * |r| for every column i.
_COST_FLOOR = 1e-30
_STEP_FLOOR = 1e-15
_STALL = 10
_STATIONARY_COS = 1e-3
_EYE3 = np.eye(3)   # the damping's diagonal, built once


def least_squares(R, M, max_nfev: int) -> BatchSolution:
    """Levenberg-Marquardt on K rotation problems at once, each with its
    own damping lam (Madsen, Nielsen and Tingleff, *Methods for
    Non-Linear Least Squares Problems*, 2004, algorithm 3.16, with
    Marquardt's diagonal scaling).

    R (K, 3, 3) are the starting rotations and M (K, 18, 21) the
    per-candidate maps of `_plane_system`.  The unknown is each
    candidate's rotation update, re-centred after every accepted step
    (R <- Q(delta) R).  Every live candidate solves its 3 x 3 system
    (J^T J + lam diag(J^T J)) delta = -J^T r, and accepts or rejects its
    step on its own gain ratio.  A candidate is frozen, and leaves the
    batch, once its cost or its step is negligible, once its cost has not
    at least halved over the last `_STALL` residual evaluations, once it
    is stationary, or once it has spent `max_nfev` of them, counting the
    one at its start.

    Stationary means that every column of J is nearly orthogonal to r:
    |(J^T r)_i| <= `_STATIONARY_COS` |J_:,i| |r| for each i.  This is the
    small-gradient stop of Madsen, Nielsen and Tingleff (section 3.2) in
    the per-column, scale-free form of MINPACK's gtol test (More, Garbow
    and Hillstrom, *User Guide for MINPACK-1*, 1980), and it costs nothing
    extra: J^T r and the diagonal of J^T J, the squared column norms, are
    already formed for the step.  Over the 500 full searches of acceptance
    criterion 5, every candidate that reaches a zero residual keeps a
    cosine of at least 1.1e-2 while its cost is above 1e-20, 11 times the
    threshold.

    Every live candidate has spent the same number of evaluations, so the
    stall test is a checkpoint of the whole batch every `_STALL`
    evaluations (Madsen, Nielsen and Tingleff, section 3.2, on stopping
    criteria).  A frozen candidate keeps its best rotation, so the tests
    only end refinement early, and they end none that could still verify:
    near a zero-residual solution the Jacobian has full rank and LM
    converges superlinearly, so the cost falls by far more than half over
    `_STALL` evaluations, while a cost that stalls above `_COST_FLOOR`
    marks a local minimum of positive cost, where some vertex stays off
    its plane by far more than the 1e-9 plane test of
    `direct_angle_search` allows.
    """
    R = np.array(R, dtype=float)
    out = np.empty_like(R)
    todo = np.arange(len(R))
    r, J = _rows(R, M)
    cost = np.einsum("ki,ki->k", r, r)
    lam = np.full(len(R), 1e-3)
    nu = np.full(len(R), 2.0)
    mark = cost.copy()
    spent = 1
    nfev = len(R)
    live = (cost > _COST_FLOOR) & (spent < max_nfev)
    while True:
        Jt = J.transpose(0, 2, 1)
        JtJ = Jt @ J
        g = (Jt @ r[..., None])[..., 0]
        # Stationary: |(J^T r)_i| <= _STATIONARY_COS |J_:,i| |r| for every i.
        live &= (g * g > _STATIONARY_COS**2 * np.diagonal(JtJ, axis1=1, axis2=2) * cost[:, None]).any(axis=1)
        if not live.all():
            out[todo[~live]] = R[~live]
            todo, R, r, J, cost, mark, lam, nu, JtJ, g, M = (
                a[live] for a in (todo, R, r, J, cost, mark, lam, nu, JtJ, g, M)
            )
        if not len(todo):
            return BatchSolution(out, nfev)
        d = lam[:, None] * np.maximum(np.diagonal(JtJ, axis1=1, axis2=2), 1e-300)
        step = np.linalg.solve(JtJ + d[:, :, None] * _EYE3, -g[..., None])[..., 0]
        trial = _turn(step, R)
        r_try, J_try = _rows(trial, M)
        cost_try = np.einsum("ki,ki->k", r_try, r_try)
        spent += 1
        nfev += len(todo)
        rho = (cost - cost_try) / np.maximum(np.einsum("ki,ki->k", step, d * step - g), 1e-300)
        good = cost_try < cost
        R[good], r[good], J[good], cost[good] = trial[good], r_try[good], J_try[good], cost_try[good]
        lam = np.where(good, lam * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), lam * nu)
        nu = np.where(good, 2.0, 2.0 * nu)
        small = np.einsum("ki,ki->k", step, step) <= _STEP_FLOOR**2
        live = (cost > _COST_FLOOR) & ~small & (spent < max_nfev)
        if (spent - 1) % _STALL == 0:
            live &= cost <= 0.5 * mark
            mark = cost.copy()


def inscribed_in_cone_check(angle: SolidAngle, pose: OctahedronPose, tol: float = 1e-8) -> bool:
    """Every octahedron vertex lies on some facet sector of the cone
    (within tol relative to its distance from the apex).  Vertices on a
    cone edge count for both adjacent facets."""
    frames = _sector_frames(angle)
    for x in pose.vertices() - angle.apex:
        lim = tol * max(1.0, float(np.linalg.norm(x)))
        on_any = False
        for inv, _ in frames:
            alpha, beta, gamma = inv @ x
            if abs(gamma) <= lim and alpha >= -lim and beta >= -lim:
                on_any = True
                break
        if not on_any:
            return False
    return True


# ---------------------------------------------------------------------------
# Definitional membership test for the smoothed body.


def membership_oracle_batch(p: ConvexPolytope, epsilon: float, X) -> np.ndarray:
    """Whether each point x of X is in the smoothed body: x is iff some
    point of P_eps = {y : N y <= D - epsilon} lies within epsilon of it, as
    an epsilon-ball lies in P exactly when its center is in P_eps.
    Feasibility is tested to 1e-9 * max(diameter, 1), so a feasible x is in.
    Otherwise x minus its projection y onto P_eps is, by the KKT conditions,
    a nonnegative combination of the normals active at y, and by
    Caratheodory of a linearly independent subset S of them, at most 3.  So
    y is the projection of x onto the flat where the planes of S meet, and
    x is in iff a feasible projection onto the flat of some 1 to 3 shifted
    planes lies within epsilon.  A subset whose Gram matrix G = N_S N_S^T
    is singular by `np.linalg.matrix_rank` (an eigenvalue at most |S|
    machine epsilons times the largest, as for opposite facets of a cube) is
    skipped, which the argument allows.  A projection lowers the slacks
    N x - D + epsilon by N N_S^T G^-1 r_S over the distance
    sqrt(r_S . G^-1 r_S), and its feasibility is tested only where that is
    at most epsilon.  Reads the raw halfspaces only, no hull or face lattice."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N = p.normals
    tol = 1e-9 * max(p.diameter, 1.0)
    slack = X @ N.T - (p.offsets - epsilon)
    inside = slack.max(axis=1) <= tol
    for S in (list(S) for k in (1, 2, 3) for S in combinations(range(len(N)), k)):
        G = N[S] @ N[S].T
        if np.linalg.matrix_rank(G, hermitian=True) < len(S):
            continue
        G_inv = np.linalg.inv(G)
        r = slack[:, S]
        near = np.flatnonzero(~inside & (np.einsum("ni,ni->n", r @ G_inv, r) <= epsilon**2))
        moved = slack[near] - r[near] @ (N @ N[S].T @ G_inv).T
        inside[near[moved.max(axis=1) <= tol]] = True
    return inside


# ---------------------------------------------------------------------------
# Monte-Carlo solid angle area.


def mc_solid_angle_area(angle: SolidAngle, samples: int = 1_000_000, seed: int = 0):
    """Uniform-direction Monte Carlo estimate of the cone's solid angle.
    Returns (area, standard_error) in steradians."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    inside = np.ones(samples, dtype=bool)
    for _, nrm in _sector_frames(angle):
        inside &= dirs @ nrm <= 0.0
    frac = inside.mean()
    area = 4.0 * math.pi * frac
    stderr = 4.0 * math.pi * math.sqrt(max(frac * (1.0 - frac), 1e-300) / samples)
    return area, stderr
