"""Finding a regular octahedron inscribed in a polytope's boundary.

The search runs on the smoothed body: vertices of the octahedron must sit
on the zero set of the smoothed signed distance.  Six equations in seven
pose parameters leaves a one-dimensional solution set, so the damped
least-squares steps are minimum-norm; the smoothing parameter is then
halved repeatedly, each solution seeding the next, and the limit pose is
polished directly against the polytope boundary.  The continuation needs
one start, so the initial seed loop runs lazily: it stops at the first
converged pose in seed order that has not collapsed to a point, and runs
on to the usual stop rule only if that track fails.  Families that shrink
towards a vertex are detected by the same diameter diagnostic and replaced
by a fresh multistart that excludes vertex-hugging poses.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Optional

import numpy as np

from .angles import GeneralKind, classify_general
from .polytope import FEATURE_KINDS, ConvexPolytope, Feature, SmoothedBody, is_simple, solid_angle_at
from .pose import UNIT_VERTICES, OctahedronPose, pose_distance
from .rotations import apply_rotvec, super_fibonacci_rotations
from .sphere import GeometryError

__all__ = [
    "SolverConfig",
    "MultistartConfig",
    "ContinuationConfig",
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


@dataclass(frozen=True)
class SolverConfig:
    tol_res_rel: float = 1e-10      # convergence: max |residual| <= rel * diameter
    max_iter: int = 200
    lambda0: float = 1e-3
    lambda_up: float = 3.0
    lambda_down: float = 0.33
    lambda_max: float = 1e10
    step_tol_rel: float = 1e-15


@dataclass(frozen=True)
class MultistartConfig:
    n_rotations: int = 60
    n_scales: int = 4
    scale_min_rel: float = 0.01
    scale_max_rel: float = 0.5
    vertex_pullback: float = 0.25   # seed centers: vertex + pullback * (center - vertex)
    max_solutions: Optional[int] = 12
    # Stop once max_solutions are in hand and one has diameter at least
    # min(stop_scale_rel * diameter, sqrt(3) * inradius): the second term
    # is half the largest diameter an octahedron inside the body can have.
    stop_scale_rel: float = 0.05
    dedup_tol_rel: float = 1e-6
    seed_max_iter: int = 80


@dataclass(frozen=True)
class ContinuationConfig:
    eps0: Optional[float] = None    # default 0.2 * inradius
    collapse_threshold_rel: float = 1e-3
    exact_switch_rel: float = 1e-6
    vertex_exclusion_rel: float = 0.05
    max_restarts: int = 3
    solver: SolverConfig = field(default_factory=SolverConfig)
    multistart: MultistartConfig = field(default_factory=MultistartConfig)


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

    def to_dict(self) -> dict:
        return {
            "ok": bool(self.ok),
            "residuals": [float(r) for r in self.residuals],
            "features": [{"kind": f.kind, "index": f.index} for f in self.features],
            "tol": float(self.tol),
        }


# ---------------------------------------------------------------------------
# Residuals.


def _assemble_jacobian(pose: OctahedronPose, grad: np.ndarray) -> np.ndarray:
    """Chain rule from per-vertex distance gradients to the 6 x 7 pose
    Jacobian (3 center + 3 rotation tangent + 1 scale); the rotation block
    uses a world-frame (left) perturbation."""
    J = np.zeros((6, 7))
    J[:, :3] = grad
    arms = pose.scale * (UNIT_VERTICES @ pose.matrix.T)
    J[:, 3:6] = np.cross(arms, grad)
    J[:, 6] = np.einsum("ij,ij->i", grad, UNIT_VERTICES @ pose.matrix.T)
    return J


def residual(s: SmoothedBody, pose: OctahedronPose):
    """Per-vertex signed distance to the smoothed boundary, plus the pose
    Jacobian.  All six components vanish exactly when the octahedron is
    inscribed in the smoothed surface."""
    r, grad = s.signed_distance(pose.vertices())
    return r, _assemble_jacobian(pose, grad)


def _exact_residual(p: ConvexPolytope, pose: OctahedronPose):
    """Signed distance to the polytope boundary itself (negative inside),
    used for the final polish once smoothing has shrunk below resolution."""
    V = pose.vertices()
    d, proj, _, _ = p.nearest_boundary(V)
    sign = np.where(p.contains(V), -1.0, 1.0)
    grad = np.zeros_like(V)
    ok = d > 1e-300
    grad[ok] = sign[ok, None] * (V[ok] - proj[ok]) / d[ok, None]
    return sign * d, _assemble_jacobian(pose, grad)


# ---------------------------------------------------------------------------
# Damped least-squares with tangent-space rotation updates.


def _apply_step(pose: OctahedronPose, delta: np.ndarray) -> OctahedronPose:
    c = pose.center + delta[:3]
    q = apply_rotvec(pose.rotation, delta[3:6])
    s = pose.scale + delta[6]
    if s <= 1e-12:
        s = max(0.5 * pose.scale, 1e-12)
    return OctahedronPose(c, q, s)


def _levenberg_marquardt(fn, pose, tol_res, cfg: SolverConfig, diam: float):
    lam = cfg.lambda0
    res, J = fn(pose)
    cost = float(res @ res)
    iters = 0
    while iters < cfg.max_iter and np.abs(res).max() > tol_res:
        iters += 1
        aug = np.vstack([J, math.sqrt(lam) * np.eye(7)])
        rhs = np.concatenate([-res, np.zeros(7)])
        delta, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        step = float(np.linalg.norm(delta))
        if step < cfg.step_tol_rel * diam:
            break
        cand = _apply_step(pose, delta)
        cand_res, cand_J = fn(cand)
        cand_cost = float(cand_res @ cand_res)
        if cand_cost < cost:
            pose, res, J, cost = cand, cand_res, cand_J, cand_cost
            lam = max(lam * cfg.lambda_down, 1e-14)
        else:
            lam *= cfg.lambda_up
            if lam > cfg.lambda_max:
                break
    # res and J always belong to pose: a step is kept only with its own.
    converged = bool(np.abs(res).max() <= tol_res)
    warnings = ()
    if converged:
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < 1e-7 * max(sv[0], 1e-300):
            warnings = ("rank_deficient_jacobian",)
    return pose, res, iters, converged, warnings


def solve_at_epsilon(
    s: SmoothedBody, seed: OctahedronPose, cfg: SolverConfig = SolverConfig()
) -> SolveReport:
    """Drive the six smoothed residuals to zero from a seed pose.

    Success means the recomputed residual at the returned pose is within
    tolerance; a non-converged report carries the best iterate and is
    never retried internally."""
    diam = s.base.diameter
    tol = cfg.tol_res_rel * diam
    pose, res, iters, converged, warnings = _levenberg_marquardt(
        lambda q: residual(s, q), seed, tol, cfg, diam
    )
    return SolveReport(pose, res, iters, converged, s.epsilon, tol, warnings)


# ---------------------------------------------------------------------------
# Multistart.


def _hugs_a_vertex(pose: OctahedronPose, body: ConvexPolytope, radius: float) -> bool:
    far = np.linalg.norm(pose.vertices() - body.vertices[:, None, :], axis=2).max(axis=1)
    return bool(far.min() < radius)


def _seed_poses(s: SmoothedBody, cfg: MultistartConfig):
    """Deterministic seed grid.  The identity rotation at the body center
    leads, so symmetric bodies converge to their symmetric solution first
    (the solver's minimum-norm steps preserve a symmetry of the seed)."""
    base = s.base
    diam = base.diameter
    quats = np.vstack([[[1.0, 0.0, 0.0, 0.0]], super_fibonacci_rotations(cfg.n_rotations - 1)])
    centers = [base.center] + [
        v + cfg.vertex_pullback * (base.center - v) for v in base.vertices
    ]
    scales = np.geomspace(cfg.scale_max_rel * diam, cfg.scale_min_rel * diam, cfg.n_scales)
    for scale in scales:
        for center in centers:
            for q in quats:
                yield OctahedronPose(center, q, float(scale))


def _solutions(
    s: SmoothedBody, cfg: MultistartConfig, solver: SolverConfig, exclude_vertex_radius, tally
):
    """Yield the distinct converged solutions of the seed grid in seed order,
    solving each seed only when the next solution is asked for.  `tally`
    (a Counter) counts the seeds solved, the converged solves and the
    solutions yielded."""
    base = s.base
    diam = base.diameter
    stop_diameter = min(cfg.stop_scale_rel * diam, math.sqrt(3.0) * base.inradius)
    seed_solver = replace(solver, max_iter=min(solver.max_iter, cfg.seed_max_iter))
    found = []
    for seed in _seed_poses(s, cfg):
        rep = solve_at_epsilon(s, seed, seed_solver)
        tally["seeds"] += 1
        if not rep.converged:
            continue
        tally["converged"] += 1
        if exclude_vertex_radius is not None and _hugs_a_vertex(
            rep.pose, base, exclude_vertex_radius
        ):
            continue
        if any(pose_distance(rep.pose, r.pose) < cfg.dedup_tol_rel * diam for r in found):
            continue
        found.append(rep)
        tally["solutions"] += 1
        yield rep
        if (
            cfg.max_solutions is not None
            and len(found) >= cfg.max_solutions
            and max(r.pose.diameter() for r in found) >= stop_diameter
        ):
            return


def multistart(
    s: SmoothedBody,
    cfg: MultistartConfig = MultistartConfig(),
    solver: SolverConfig = SolverConfig(),
    exclude_vertex_radius: Optional[float] = None,
) -> list:
    """Solve from a deterministic grid of poses (low-discrepancy rotations
    x centers x log-spaced scales) and return the distinct converged
    solutions, deduplicated modulo the octahedron's rotation group.

    With `exclude_vertex_radius`, converged poses whose entire vertex set
    sits within that distance of a single polytope vertex are discarded
    (used by the collapse restart).

    The search stops once `max_solutions` are in hand and the largest has
    diameter at least min(stop_scale_rel * diameter, sqrt(3) * inradius).
    An octahedron inside the body has inradius diameter / (2 sqrt(3)), so
    no solution is larger than 2 sqrt(3) * inradius; the second term lets
    thin bodies stop without running the whole grid.

    Solutions come back in seed order (the canonical reduction order), so
    identical inputs give an identical list regardless of how seeds would
    be scheduled across workers.
    """
    found = list(_solutions(s, cfg, solver, exclude_vertex_radius, Counter()))
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


def _polish_exact(p: ConvexPolytope, seed: OctahedronPose, cfg: ContinuationConfig):
    diam = p.diameter
    tol = cfg.solver.tol_res_rel * diam
    pose, res, iters, converged, warnings = _levenberg_marquardt(
        lambda q: _exact_residual(p, q), seed, tol, cfg.solver, diam
    )
    d = np.abs(res)  # the exact residual is the signed distance to the boundary
    return SolveReport(pose, d, iters, bool(converged and d.max() <= tol), 0.0, tol, warnings)


def _largest(reports) -> SolveReport:
    return max(reports, key=lambda r: (r.pose.scale, -r.max_residual()))


def _collapsed(pose: OctahedronPose, diam: float, cfg: ContinuationConfig) -> bool:
    """The diameter diagnostic: a pose this small has shrunk towards a point."""
    return pose.diameter() < cfg.collapse_threshold_rel * diam


def _starts(solutions, diam: float, cfg: ContinuationConfig, tally):
    """Continuation starts in the order they are tried: the first solution
    in seed order that has not collapsed, then the remaining ones by
    decreasing scale.  The seed loop runs on past the first start only when
    its track fails.  If every solution has collapsed, the first one
    leads."""
    found = []
    for rep in solutions:
        found.append(rep)
        if not _collapsed(rep.pose, diam, cfg):
            break
    if not found:
        return
    start = found[-1]
    if _collapsed(start.pose, diam, cfg):
        start = found[0]
    tally["collapsed_skipped"] = found.index(start)
    yield start
    found.extend(solutions)
    yield from sorted((r for r in found if r is not start), key=lambda r: -r.pose.scale)


def continue_to_surface(p: ConvexPolytope, cfg: ContinuationConfig = ContinuationConfig()):
    """Track inscribed octahedra of the smoothed body as the smoothing
    parameter is halved to zero, then certify against the polytope itself.

    Returns (ContinuationTrace, final SolveReport); the final report has
    epsilon 0 and unsigned vertex-to-boundary distances as residuals.
    """
    warnings = _precondition_warnings(p)
    eps0 = cfg.eps0 if cfg.eps0 is not None else 0.2 * p.inradius
    if not 0 < eps0 < p.inradius:
        raise ValueError(f"eps0 must lie in (0, inradius={p.inradius:.6g})")

    s0 = SmoothedBody(p, eps0)
    search = Counter(seeds=0, converged=0, solutions=0, collapsed_skipped=0)
    solutions = _solutions(s0, cfg.multistart, cfg.solver, None, search)
    starts = _starts(solutions, p.diameter, cfg, search)
    tried = 0
    last_error = None
    for start in islice(starts, cfg.max_restarts + 1):
        tried += 1
        try:
            return _track_from(p, start, eps0, cfg, warnings, search)
        except (InscriptionFailed, NoSolutionFound) as exc:
            last_error = exc
    if not tried:
        raise InscriptionFailed(f"multistart found no inscribed octahedron at eps0={eps0:.6g}")
    raise InscriptionFailed(
        f"all {tried} continuation starts failed (numerical failure of the search, "
        f"not a counterexample): {last_error}",
        trace=getattr(last_error, "trace", None),
    )


def _track_from(p, start: SolveReport, eps0, cfg: ContinuationConfig, warnings, search):
    diam = p.diameter
    steps = [(eps0, start)]
    flags = []
    pose = start.pose
    eps = eps0
    while eps > cfg.exact_switch_rel * diam:
        eps *= 0.5
        if eps <= cfg.exact_switch_rel * diam:
            break
        s = SmoothedBody(p, eps)
        rep = solve_at_epsilon(s, pose, cfg.solver)
        if not rep.converged:
            rep = _largest(multistart(s, cfg.multistart, cfg.solver))
        if _collapsed(rep.pose, diam, cfg):
            flags.append(f"VERTEX_COLLAPSE at epsilon={eps:.6g}")
            rep = _largest(
                multistart(
                    s,
                    cfg.multistart,
                    cfg.solver,
                    exclude_vertex_radius=cfg.vertex_exclusion_rel * diam,
                )
            )
        steps.append((eps, rep))
        pose = rep.pose

    final = _polish_exact(p, pose, cfg)
    trace = ContinuationTrace(
        steps=tuple(steps),
        diameter_history=tuple(r.pose.diameter() for _, r in steps),
        flags=tuple(flags),
        warnings=tuple(warnings),
        initial_search=dict(search),
    )
    if not final.converged:
        raise InscriptionFailed(
            f"final polish residual {final.max_residual():.3e} exceeds {final.tol:.3e}",
            trace=trace,
        )
    return trace, final


def certify(p: ConvexPolytope, pose: OctahedronPose, tol: float) -> CertifyReport:
    """Re-evaluate the inscription claim: every generated vertex must lie
    within tol of the boundary surface.  Regularity of the octahedron
    holds by construction of the pose."""
    residuals, _, kind, index = p.nearest_boundary(pose.vertices())
    features = tuple(map(Feature, FEATURE_KINDS[kind], index.tolist()))
    return CertifyReport(bool(residuals.max() <= tol), residuals, features, float(tol))
