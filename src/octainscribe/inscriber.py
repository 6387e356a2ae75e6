"""Finding a regular octahedron inscribed in a polytope's boundary.

The search runs on the smoothed body: vertices of the octahedron must sit
on the zero set of the smoothed signed distance.  Six equations in seven
pose parameters leaves a one-dimensional solution set, so the damped
least-squares steps are minimum-norm; the smoothing parameter is then
halved repeatedly, each solution seeding the next, and the limit pose is
polished directly against the polytope boundary.  The continuation needs
one start, so the initial seed loop runs lazily: it stops at the first
converged pose in seed order that has not collapsed to a point, and runs
on, to at most _MAX_SOLUTIONS solutions, only if that track fails.

A ladder step that does not converge, or whose pose has collapsed, ends
the track, and the next start is tracked.  An inner body that cannot be
built ends the ladder, and the last pose goes to the polish: every start
would reach the same epsilon, so a restart would not help.

The ladder also ends, before a halving, once every vertex of the pose is
nearest to a facet of the inner body, and the pose goes to the polish:
every later step would be a no-op.  Say vertex x lies at distance eps from
the inner body P_eps = {y : n_j . y <= d_j - eps}, with its foot
x - eps n_i on facet i, so n_i . x = d_i.  The foot lies in P_eps, so
n_j . x <= d_j - eps (1 - n_j . n_i) for every j, and as 1 - n_j . n_i >= 0
the foot x - eps' n_i lies in P_eps' for every eps' < eps.  So x stays at
distance eps' from P_eps', on the smoothed boundary, down to eps' = 0,
where it lies on facet i of the polytope: each step the full ladder would
take starts at a converged pose and makes no iteration.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from .angles import GeneralKind, classify_general
from .polytope import FEATURE_KINDS, ConvexPolytope, Feature, SmoothedBody, is_simple, solid_angle_at
from .pose import OctahedronPose, pose_distance
from .rotations import apply_rotvec, super_fibonacci_rotations
from .sphere import GeometryError, _cross

__all__ = [
    "SolveReport",
    "ContinuationTrace",
    "CertifyReport",
    "NoSolutionFound",
    "InscriptionFailed",
    "residual",
    "solve_at_epsilon",
    "multistart",
    "continue_to_surface",
    "certify",
]


class NoSolutionFound(RuntimeError):
    """Multistart produced no converged pose."""


class InscriptionFailed(RuntimeError):
    """Continuation exhausted its restarts.  For a simple polytope this
    contradicts the existence guarantee for simple polytopes and marks a numerical
    failure of the search, never a counterexample."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


# Solver constants.  The only values a caller sets are eps0 and
# n_rotations (continue_to_surface) and max_iter (solve_at_epsilon).

# Damped least squares.
_TOL_RES_REL = 1e-10      # convergence: max |residual| <= rel * diameter
_MAX_ITER = 200
_LAMBDA0 = 1e-3
_LAMBDA_UP = 3.0
_LAMBDA_DOWN = 0.33
_LAMBDA_MAX = 1e10
_STEP_TOL_REL = 1e-15

# Multistart seed grid.
_N_ROTATIONS = 60
_N_SCALES = 4
_SCALE_MIN_REL = 0.01
_SCALE_MAX_REL = 0.5
_VERTEX_PULLBACK = 0.25   # seed centers: vertex + pullback * (center - vertex)
_MAX_SOLUTIONS = 12
# Stop once _MAX_SOLUTIONS are in hand and one has diameter at least
# min(_STOP_SCALE_REL * diameter, sqrt(3) * inradius): the second term
# is half the largest diameter an octahedron inside the body can have.
_STOP_SCALE_REL = 0.05
_DEDUP_TOL_REL = 1e-6
_SEED_MAX_ITER = 80

# Continuation.
_COLLAPSE_THRESHOLD_REL = 1e-3
_EXACT_SWITCH_REL = 1e-6
_MAX_RESTARTS = 3


@dataclass(frozen=True, eq=False)
class SolveReport:
    pose: OctahedronPose
    residuals: np.ndarray
    iterations: int
    converged: bool
    epsilon: float
    tol: float
    warnings: tuple = ()

    def max_residual(self) -> float:
        return float(np.abs(self.residuals).max())

    def to_dict(self) -> dict:
        return {
            "pose": self.pose.to_dict(),
            "residuals": [float(r) for r in self.residuals],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "epsilon": float(self.epsilon),
            "tol": float(self.tol),
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True, eq=False)
class ContinuationTrace:
    steps: tuple                    # ((epsilon, SolveReport), ...)
    diameter_history: tuple         # 2 * scale per step
    # Reasons earlier tracks ended, then this ladder's early exit:
    # FLAT_CONTACT (every contact facet-interior) or INNER_BODY_DEGENERATE.
    flags: tuple = ()
    warnings: tuple = ()
    # The initial seed loop as far as it ran: seeds solved, converged solves,
    # distinct solutions, and solutions passed over before the first start
    # because they had collapsed.
    initial_search: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "steps": [{"epsilon": float(e), "report": r.to_dict()} for e, r in self.steps],
            "diameter_history": [float(d) for d in self.diameter_history],
            "flags": list(self.flags),
            "warnings": list(self.warnings),
            "initial_search": {k: int(v) for k, v in self.initial_search.items()},
        }


@dataclass(frozen=True, eq=False)
class CertifyReport:
    ok: bool
    residuals: np.ndarray
    features: tuple
    tol: float
    diameter_ratio: float  # octahedron diameter / body diameter

    def to_dict(self) -> dict:
        return {
            "ok": bool(self.ok),
            "residuals": [float(r) for r in self.residuals],
            "features": [{"kind": f.kind, "index": f.index} for f in self.features],
            "tol": float(self.tol),
            "diameter_ratio": float(self.diameter_ratio),
        }


# ---------------------------------------------------------------------------
# Residuals.


def _assemble_jacobian(pose: OctahedronPose, grad: np.ndarray) -> np.ndarray:
    """Chain rule from per-vertex distance gradients to the 6 x 7 pose
    Jacobian (3 center + 3 rotation tangent + 1 scale); the rotation block
    uses a world-frame (left) perturbation."""
    J = np.empty((6, 7))
    J[:, :3] = grad
    J[:, 3:6] = _cross(pose.scale * pose.arms, grad)
    J[:, 6] = np.einsum("ij,ij->i", grad, pose.arms)
    return J


def residual(body: SmoothedBody | ConvexPolytope, pose: OctahedronPose):
    """Per-vertex signed distance to the boundary of a SmoothedBody or a
    ConvexPolytope, plus the pose Jacobian.  All six components vanish
    exactly when the octahedron is inscribed in that boundary."""
    r, grad = body.signed_distance(pose.vertices())
    return r, _assemble_jacobian(pose, grad)


# ---------------------------------------------------------------------------
# Damped least-squares with tangent-space rotation updates.


def _apply_step(pose: OctahedronPose, delta: np.ndarray) -> OctahedronPose:
    c = pose.center + delta[:3]
    q = apply_rotvec(pose.rotation, delta[3:6])
    s = pose.scale + delta[6]
    if s <= 1e-12:
        s = max(0.5 * pose.scale, 1e-12)
    return OctahedronPose(c, q, s)


def _levenberg_marquardt(fn, pose, tol_res, max_iter: int, diam: float):
    lam = _LAMBDA0
    res, J = fn(pose)
    cost = float(res @ res)
    iters = 0
    while iters < max_iter and np.abs(res).max() > tol_res:
        iters += 1
        aug = np.vstack([J, math.sqrt(lam) * np.eye(7)])
        rhs = np.concatenate([-res, np.zeros(7)])
        delta, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        step = math.sqrt(delta @ delta)
        if step < _STEP_TOL_REL * diam:
            break
        cand = _apply_step(pose, delta)
        cand_res, cand_J = fn(cand)
        cand_cost = float(cand_res @ cand_res)
        if cand_cost < cost:
            pose, res, J, cost = cand, cand_res, cand_J, cand_cost
            lam = max(lam * _LAMBDA_DOWN, 1e-14)
        else:
            lam *= _LAMBDA_UP
            if lam > _LAMBDA_MAX:
                break
    # res and J always belong to pose: a step is kept only with its own.
    converged = bool(np.abs(res).max() <= tol_res)
    warnings = ()
    if converged:
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < 1e-7 * max(sv[0], 1e-300):
            warnings = ("rank_deficient_jacobian",)
    return pose, res, iters, converged, warnings


def solve_at_epsilon(s: SmoothedBody, seed: OctahedronPose, max_iter: int = _MAX_ITER) -> SolveReport:
    """Drive the six smoothed residuals to zero from a seed pose.

    Success means the recomputed residual at the returned pose is within
    tolerance; a non-converged report carries the best iterate and is
    never retried internally."""
    diam = s.base.diameter
    tol = _TOL_RES_REL * diam
    pose, res, iters, converged, warnings = _levenberg_marquardt(
        lambda q: residual(s, q), seed, tol, max_iter, diam
    )
    return SolveReport(pose, res, iters, converged, s.epsilon, tol, warnings)


# ---------------------------------------------------------------------------
# Multistart.


def _seed_poses(s: SmoothedBody, n_rotations: int):
    """Deterministic seed grid.  The identity rotation at the body center
    leads, so symmetric bodies converge to their symmetric solution first
    (the solver's minimum-norm steps preserve a symmetry of the seed)."""
    base = s.base
    diam = base.diameter
    quats = np.vstack([[[1.0, 0.0, 0.0, 0.0]], super_fibonacci_rotations(n_rotations - 1)])
    centers = [base.center] + [v + _VERTEX_PULLBACK * (base.center - v) for v in base.vertices]
    scales = np.geomspace(_SCALE_MAX_REL * diam, _SCALE_MIN_REL * diam, _N_SCALES)
    for scale in scales:
        for center in centers:
            for q in quats:
                yield OctahedronPose(center, q, float(scale))


def _solutions(s: SmoothedBody, n_rotations: int, tally):
    """Yield the distinct converged solutions of the seed grid in seed order,
    solving each seed only when the next solution is asked for.  `tally`
    (a Counter) counts the seeds solved, the converged solves and the
    solutions yielded."""
    base = s.base
    diam = base.diameter
    stop_diameter = min(_STOP_SCALE_REL * diam, math.sqrt(3.0) * base.inradius)
    found = []
    for seed in _seed_poses(s, n_rotations):
        rep = solve_at_epsilon(s, seed, _SEED_MAX_ITER)
        tally["seeds"] += 1
        if not rep.converged:
            continue
        tally["converged"] += 1
        if any(pose_distance(rep.pose, r.pose) < _DEDUP_TOL_REL * diam for r in found):
            continue
        found.append(rep)
        tally["solutions"] += 1
        yield rep
        if len(found) >= _MAX_SOLUTIONS and max(r.pose.diameter() for r in found) >= stop_diameter:
            return


# Kept only because the benchmark tracer wraps it; no production path calls it.
def multistart(s: SmoothedBody, n_rotations: int = _N_ROTATIONS) -> list:
    """Solve from a deterministic grid of poses (low-discrepancy rotations
    x centers x log-spaced scales) and return the distinct converged
    solutions, deduplicated modulo the octahedron's rotation group.
    `continue_to_surface` runs the same seed loop lazily, for its starts.

    The search stops once _MAX_SOLUTIONS are in hand and the largest has
    diameter at least min(_STOP_SCALE_REL * diameter, sqrt(3) * inradius).
    An octahedron inside the body has inradius diameter / (2 sqrt(3)), so
    no solution is larger than 2 sqrt(3) * inradius; the second term lets
    thin bodies stop without running the whole grid.

    Solutions come back in seed order (the canonical reduction order), so
    identical inputs give an identical list.
    """
    _check_n_rotations(n_rotations)
    found = list(_solutions(s, n_rotations, Counter()))
    if not found:
        raise NoSolutionFound(f"no inscribed octahedron found at epsilon={s.epsilon:.6g}")
    return found


# ---------------------------------------------------------------------------
# Continuation.


def _precondition_warnings(p: ConvexPolytope) -> list:
    warnings = []
    simple, offending = is_simple(p)
    if simple:
        return warnings
    warnings.append(f"polytope is not simple (vertices {offending})")
    for vi in offending:
        try:
            g = classify_general(solid_angle_at(p, vi))
        except GeometryError as exc:
            warnings.append(f"vertex {vi}: classification failed ({exc})")
            continue
        if g.kind is not GeneralKind.IN_A0:
            warnings.append(
                f"vertex {vi}: solid angle fits (or may fit) inside the pi/3 triangle; "
                "existence of an inscribed octahedron is not guaranteed for this polytope"
            )
    return warnings


def _polish_exact(p: ConvexPolytope, seed: OctahedronPose):
    diam = p.diameter
    tol = _TOL_RES_REL * diam
    pose, res, iters, converged, warnings = _levenberg_marquardt(
        lambda q: residual(p, q), seed, tol, _MAX_ITER, diam
    )
    # The exact residual is the signed distance to the boundary.
    return SolveReport(pose, np.abs(res), iters, converged, 0.0, tol, warnings)


def _collapsed(pose: OctahedronPose, diam: float) -> bool:
    """The diameter diagnostic: a pose this small has shrunk towards a point."""
    return pose.diameter() < _COLLAPSE_THRESHOLD_REL * diam


def _starts(solutions, diam: float, tally):
    """Continuation starts in the order they are tried: the first solution
    in seed order that has not collapsed, then the remaining ones by
    decreasing scale.  The seed loop runs on past the first start only when
    its track fails, and only until _MAX_SOLUTIONS solutions are in hand:
    at most _MAX_RESTARTS of them are ever tracked.  If every solution has
    collapsed, the first one leads."""
    found = []
    for rep in solutions:
        found.append(rep)
        if not _collapsed(rep.pose, diam):
            break
    if not found:
        return
    start = found[-1]
    if _collapsed(start.pose, diam):
        start = found[0]
    tally["collapsed_skipped"] = found.index(start)
    yield start
    found.extend(islice(solutions, max(_MAX_SOLUTIONS - len(found), 0)))
    yield from sorted((r for r in found if r is not start), key=lambda r: -r.pose.scale)


def _check_n_rotations(n_rotations: int) -> None:
    # The identity leads the grid, so n_rotations <= 0 would silently run
    # the one-rotation grid of n_rotations = 1.
    if n_rotations < 1:
        raise ValueError(f"n_rotations must be at least 1, got {n_rotations}")


def continue_to_surface(
    p: ConvexPolytope, eps0: Optional[float] = None, n_rotations: int = _N_ROTATIONS
):
    """Track inscribed octahedra of the smoothed body as the smoothing
    parameter is halved towards zero, until every contact is
    facet-interior, then polish against the polytope itself.

    `eps0` is the initial smoothing (default 0.2 * inradius); `n_rotations`
    is the number of seed rotations in the initial seed grid.

    A track that fails is abandoned and the next start is tracked, up to
    _MAX_RESTARTS times; each abandoned track's reason leads the returned
    trace's flags.

    Returns (ContinuationTrace, final SolveReport); the final report has
    epsilon 0 and unsigned vertex-to-boundary distances as residuals.
    """
    warnings = _precondition_warnings(p)
    if eps0 is None:
        eps0 = 0.2 * p.inradius
    _check_n_rotations(n_rotations)

    s0 = SmoothedBody(p, eps0)
    search = Counter(seeds=0, converged=0, solutions=0, collapsed_skipped=0)
    starts = _starts(_solutions(s0, n_rotations, search), p.diameter, search)
    restarts = []
    failure = None
    for start in islice(starts, _MAX_RESTARTS + 1):
        try:
            return _track_from(p, start, s0, warnings, search, restarts)
        except InscriptionFailed as exc:
            failure = exc
            restarts.append(str(exc))
    if failure is None:
        raise InscriptionFailed(f"multistart found no inscribed octahedron at eps0={eps0:.6g}")
    raise InscriptionFailed(
        f"all {len(restarts)} continuation starts failed (numerical failure of the search, "
        f"not a counterexample): {failure}",
        trace=failure.trace,
    )


def _on_facets(s: SmoothedBody, pose: OctahedronPose) -> bool:
    """Every vertex of the pose is nearest to a facet of the inner body."""
    return bool((s.inner_body.nearest_boundary(pose.vertices())[2] == 0).all())


def _track_from(p, start: SolveReport, s0: SmoothedBody, warnings, search, restarts):
    """One track down the epsilon ladder from `start`, a solution on the
    smoothed body `s0`.  A step that does not converge or has collapsed,
    and a polished pose that has collapsed, end the track with
    InscriptionFailed, whose message is its flag;
    `restarts` holds the flags of the tracks abandoned before.

    Before each halving, from the start on, the ladder ends with the flag
    FLAT_CONTACT once every vertex is nearest to a facet of the current
    inner body: every later step would keep the pose (see the module
    docstring), so the pose goes straight to the polish."""
    diam = p.diameter
    steps = [(s0.epsilon, start)]
    flags = list(restarts)

    def trace():
        return ContinuationTrace(
            steps=tuple(steps),
            diameter_history=tuple(r.pose.diameter() for _, r in steps),
            flags=tuple(flags),
            warnings=tuple(warnings),
            initial_search=dict(search),
        )

    def failed(reason):
        flags.append(reason)
        return InscriptionFailed(reason, trace=trace())

    s, pose = s0, start.pose
    while not _on_facets(s, pose):
        eps = 0.5 * s.epsilon
        if eps <= _EXACT_SWITCH_REL * diam:
            break
        try:
            s = SmoothedBody(p, eps)
        except GeometryError:
            flags.append(f"INNER_BODY_DEGENERATE at epsilon={eps:.6g}")
            break
        rep = solve_at_epsilon(s, pose)
        if not rep.converged:
            raise failed(f"NO_CONVERGENCE at epsilon={eps:.6g}")
        if _collapsed(rep.pose, diam):
            raise failed(f"VERTEX_COLLAPSE at epsilon={eps:.6g}")
        steps.append((eps, rep))
        pose = rep.pose
    else:
        flags.append(f"FLAT_CONTACT at epsilon={s.epsilon:.6g}")

    final = _polish_exact(p, pose)
    if not final.converged:
        raise failed(f"final polish residual {final.max_residual():.3e} exceeds {final.tol:.3e}")
    if _collapsed(final.pose, diam):
        raise failed("VERTEX_COLLAPSE in the final polish")
    return trace(), final


def certify(p: ConvexPolytope, pose: OctahedronPose, tol: float) -> CertifyReport:
    """Re-evaluate the inscription claim: every generated vertex must lie
    within tol of the boundary surface, and the octahedron must not have
    collapsed towards a point (`_collapsed`).  Regularity of the octahedron
    holds by construction of the pose."""
    residuals, _, kind, index = p.nearest_boundary(pose.vertices())
    features = tuple(map(Feature, FEATURE_KINDS[kind], index.tolist()))
    ok = bool(residuals.max() <= tol) and not _collapsed(pose, p.diameter)
    return CertifyReport(ok, residuals, features, float(tol), pose.diameter() / p.diameter)
