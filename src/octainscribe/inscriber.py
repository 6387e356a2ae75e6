"""Finding a regular octahedron inscribed in a polytope's boundary.

The search runs on the smoothed body: vertices of the octahedron must sit
on the zero set of the smoothed signed distance.  Six equations in seven
pose parameters leaves a one-dimensional solution set, so every solve
takes minimum-norm damped least-squares steps, one 6 x 6 solve each
(`_damped_step`), under Nielsen's damping update (Nielsen, *Damping
Parameter in Marquardt's Method*, IMM-REP-1999-05): an accepted step
scales the damping by a factor between 1/3 and 2, the smaller the better
the linear model predicted its gain, and n rejections in a row raise it
by 2^(n(n+1)/2).  A solve that has not converged also stops at a
stationary point of positive cost, once every column of the Jacobian is
nearly orthogonal to the residual (the small-gradient stop of Madsen,
Nielsen and Tingleff 2004, sec. 3.2, in the per-column form of MINPACK's
gtol test): seeds that run into a local minimum end there instead of
spending their iterations on rejected steps, and a solve that converges
never passes that close to orthogonal on its way.  The test
takes each column on its own because the columns mix units, lengths for
the center and scale and radians for the rotation; one Frobenius norm over
all seven would weigh them against each other and can stop a converging
seed of a thin body.  A solve that crawls along a valley without
converging, its cost falling by a fraction of a percent per step, ends at
a progress checkpoint every _PROGRESS_WINDOW iterations once the window
has not cut its cost by the factor _PROGRESS_FACTOR (a window form of the
small-reduction stop of the same sec. 3.2, MINPACK's ftol).  Neither stop
moves a search, ladder, flag or pose of the survey families or the thin
bodies; they only end failing solves sooner.  The smoothing parameter is
then halved repeatedly, each solution seeding the next, and the limit pose
is polished directly against the polytope boundary.  The continuation
needs one start, so the initial seed loop runs lazily: it stops at the
first converged pose in seed order that has not collapsed to a point, and
runs on, to at most _MAX_SOLUTIONS solutions, only if that track fails.

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
    "InscriptionFailed",
    "residual",
    "solve_at_epsilon",
    "continue_to_surface",
    "certify",
]


# Kept with `multistart`, its only raiser, for the benchmark tracer.
class NoSolutionFound(RuntimeError):
    """Multistart produced no converged pose."""


class InscriptionFailed(RuntimeError):
    """Continuation exhausted its restarts.  For a simple polytope this
    contradicts the existence guarantee for simple polytopes and marks a numerical
    failure of the search, never a counterexample."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


# Solver constants; a caller sets none of them.

# Damped least squares.  The damping follows Nielsen's update (Madsen,
# Nielsen and Tingleff 2004, alg. 3.16): an accepted step with gain ratio
# rho scales lambda by max(1/3, 1 - (2 rho - 1)^3), down to a floor of
# 1e-14, and resets nu to 2; a rejected step scales lambda by nu and
# doubles nu.  Every solve stops after _MAX_ITER iterations, a cap only
# seeds reach (ladder steps take at most 60 and polishes 12, on bodies 1e-4
# thin or 1e6 diameters off the origin), at a stationary point
# (_STATIONARY_COS), when it crawls (_PROGRESS_WINDOW), and once its damped
# step, at most |J| |r| / lambda long, is below _STEP_TOL_REL * diameter:
# the step has vanished, relative to the body.  Lambda needs no cap: a run
# of rejections ends at its second progress checkpoint, so holds at most 39
# and raises lambda by nu < 2^40 a step, and the step floor keeps lambda
# below 2^40 * |J| |r| / (_STEP_TOL_REL * diameter), far from overflow.
_TOL_RES_REL = 1e-10      # convergence: max |residual| <= rel * diameter
_MAX_ITER = 80
_LAMBDA0 = 1e-3
_STEP_TOL_REL = 1e-15
# The small-gradient stop (Madsen, Nielsen and Tingleff 2004, sec. 3.2) in
# the per-column form of MINPACK's gtol test (More, Garbow and Hillstrom,
# *User Guide for MINPACK-1*, 1980): a solve that has not converged stops
# once |(J^T r)_i| <= _STATIONARY_COS * |J_:,i| * |r| for every column i.
# Every solve that converges, over the survey families and 20 thin bodies,
# keeps a cosine of at least 1.0e-2 until it converges: 34 times this.
_STATIONARY_COS = 3e-4
# The small-reduction stop (same sec. 3.2; MINPACK's ftol) over a window:
# every _PROGRESS_WINDOW iterations a solve that has not converged stops
# if its cost is above _PROGRESS_FACTOR times the cost at the previous
# checkpoint (the first compares with the starting cost).  It cuts the
# survey's residual evaluations from 539 to 499 on criterion 3 and from
# 9,057 to 7,365 on the spiky bodies, and moves no record; a window of 10,
# or a factor of 0.75 or 0.5, changes one spiky search.
_PROGRESS_WINDOW = 20
_PROGRESS_FACTOR = 0.9

# Multistart seed grid: the identity, then 59 super-Fibonacci rotations.
_SEED_ROTATIONS = np.vstack([[[1.0, 0.0, 0.0, 0.0]], super_fibonacci_rotations(59)])
_SEED_ROTATIONS.flags.writeable = False
_N_SCALES = 4
_SCALE_MIN_REL = 0.01
_SCALE_MAX_REL = 0.5
_VERTEX_PULLBACK = 0.25   # seed centers: vertex + pullback * (center - vertex)
_MAX_SOLUTIONS = 12
_DEDUP_TOL_REL = 1e-6

# Continuation.
_EPS_START_REL = 0.2      # the ladder's first smoothing, relative to the inradius
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
    steps: tuple                    # (SolveReport, ...), one per ladder step
    # Reasons earlier tracks ended, then this ladder's early exit:
    # FLAT_CONTACT (every contact facet-interior) or INNER_BODY_DEGENERATE.
    flags: tuple = ()
    warnings: tuple = ()
    # The initial seed loop as far as it ran: seeds solved, converged solves,
    # distinct solutions, and solutions passed over before the first start
    # because they had collapsed.
    initial_search: dict = field(default_factory=dict)

    @property
    def diameter_history(self) -> tuple:  # 2 * scale per step
        return tuple(r.pose.diameter() for r in self.steps)

    def to_dict(self) -> dict:
        return {
            "steps": [{"epsilon": float(r.epsilon), "report": r.to_dict()} for r in self.steps],
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


def residual(body: SmoothedBody | ConvexPolytope, pose: OctahedronPose):
    """Per-vertex signed distance to the boundary of a SmoothedBody or a
    ConvexPolytope, plus the pose Jacobian.  All six components vanish
    exactly when the octahedron is inscribed in that boundary.

    The chain rule takes the per-vertex distance gradients to the 6 x 7
    pose Jacobian (3 center + 3 rotation tangent + 1 scale); the rotation
    block uses a world-frame (left) perturbation."""
    r, grad = body.signed_distance(pose.vertices())
    turn = _cross(pose.scale * pose.arms, grad)
    return r, np.concatenate([grad, turn, np.einsum("ij,ij->i", grad, pose.arms)[:, None]], axis=1)


# ---------------------------------------------------------------------------
# Damped least-squares with tangent-space rotation updates.


def _apply_step(pose: OctahedronPose, delta: np.ndarray) -> OctahedronPose:
    c = pose.center + delta[:3]
    q = apply_rotvec(pose.rotation, delta[3:6])
    s = pose.scale + delta[6]
    if s <= 1e-12:
        s = max(0.5 * pose.scale, 1e-12)
    return OctahedronPose(c, q, s)


def _damped_step(J: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """The minimizer -J^T (J J^T + lam I)^-1 r of |J delta + r|^2 + lam |delta|^2:
    (J^T J + lam I)^-1 J^T = J^T (J J^T + lam I)^-1, so one 6 x 6 solve
    gives it (Madsen, Nielsen and Tingleff 2004, sec. 3.2)."""
    damped = J @ J.T
    damped.flat[:: len(J) + 1] += lam
    return J.T @ np.linalg.solve(damped, -r)


def solve_at_epsilon(body: SmoothedBody | ConvexPolytope, pose: OctahedronPose) -> SolveReport:
    """Every solve of the inscriber: drive the six residuals of `body`, a
    SmoothedBody or the polytope itself, to within _TOL_RES_REL * diameter
    from `pose`.  On the polytope, the solve at epsilon 0, the residual is
    the signed distance to its boundary, reported unsigned.  A report that
    has not converged carries the last iterate and is never retried."""
    exact = isinstance(body, ConvexPolytope)
    diam = body.diameter if exact else body.base.diameter
    tol = _TOL_RES_REL * diam
    lam, nu = _LAMBDA0, 2.0
    res, J = residual(body, pose)
    cost = checkpoint = float(res @ res)
    g = J.T @ res
    iters = 0
    moved = True
    while iters < _MAX_ITER and np.abs(res).max() > tol:
        # A stationary point of positive cost: every column of J is nearly
        # orthogonal to the residual, and no step can reach tol from here.
        # A rejected step leaves J, g and cost as they were, and with them
        # the test's outcome, so it runs only on new ones.
        if moved and (np.abs(g) <= _STATIONARY_COS * np.sqrt(np.einsum("ij,ij->j", J, J) * cost)).all():
            break
        moved = False
        # A crawl: the last _PROGRESS_WINDOW iterations cut the cost by
        # less than a factor _PROGRESS_FACTOR.
        if iters and iters % _PROGRESS_WINDOW == 0:
            if cost > _PROGRESS_FACTOR * checkpoint:
                break
            checkpoint = cost
        iters += 1
        delta = _damped_step(J, res, lam)
        step = math.sqrt(delta @ delta)
        if step < _STEP_TOL_REL * diam:
            break
        cand = _apply_step(pose, delta)
        cand_res, cand_J = residual(body, cand)
        cand_cost = float(cand_res @ cand_res)
        if cand_cost < cost:
            # The gain ratio: the actual decrease of the cost over the one
            # the linear model predicts, delta . (lam delta - J^T r).  It is
            # positive on an accepted step, and every rho >= 1 gives 1/3.
            rho = (cost - cand_cost) / (delta @ (lam * delta - g))
            lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * min(max(rho, 0.0), 1.0) - 1.0) ** 3), 1e-14)
            nu = 2.0
            pose, res, J, cost = cand, cand_res, cand_J, cand_cost
            g = J.T @ res
            moved = True
        else:
            lam *= nu
            nu *= 2.0
    # res and J always belong to pose: a step is kept only with its own.
    converged = bool(np.abs(res).max() <= tol)
    warnings = ()
    if converged:
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < 1e-7 * max(sv[0], 1e-300):
            warnings = ("rank_deficient_jacobian",)
    if exact:
        return SolveReport(pose, np.abs(res), iters, converged, 0.0, tol, warnings)
    return SolveReport(pose, res, iters, converged, body.epsilon, tol, warnings)


# ---------------------------------------------------------------------------
# Multistart.


def _seed_poses(s: SmoothedBody):
    """Deterministic seed grid.  The identity rotation at the body center
    leads, so symmetric bodies converge to their symmetric solution first
    (the solver's minimum-norm steps preserve a symmetry of the seed)."""
    base = s.base
    diam = base.diameter
    centers = [base.center] + [v + _VERTEX_PULLBACK * (base.center - v) for v in base.vertices]
    scales = np.geomspace(_SCALE_MAX_REL * diam, _SCALE_MIN_REL * diam, _N_SCALES)
    for scale in scales:
        for center in centers:
            for q in _SEED_ROTATIONS:
                yield OctahedronPose(center, q, float(scale))


def _solutions(s: SmoothedBody, tally):
    """Yield the distinct converged solutions of the seed grid in seed order,
    solving each seed only when the next solution is asked for.  `tally`
    (a Counter) counts the seeds solved, the converged solves and the
    solutions yielded."""
    base = s.base
    diam = base.diameter
    # Half the largest diameter an octahedron inside the body can have.
    stop_diameter = math.sqrt(3.0) * base.inradius
    found = []
    for seed in _seed_poses(s):
        rep = solve_at_epsilon(s, seed)
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
def multistart(s: SmoothedBody) -> list:
    """Solve from a deterministic grid of poses (low-discrepancy rotations
    x centers x log-spaced scales) and return the distinct converged
    solutions, deduplicated modulo the octahedron's rotation group: the
    first _MAX_SOLUTIONS in seed order (the canonical reduction order), so
    identical inputs give an identical list.  `continue_to_surface` runs
    the same seed loop lazily, for its starts.
    """
    found = list(islice(_solutions(s, Counter()), _MAX_SOLUTIONS))
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


def continue_to_surface(p: ConvexPolytope):
    """Track inscribed octahedra of the smoothed body as the smoothing
    parameter is halved towards zero, until every contact is
    facet-interior, then polish against the polytope itself.

    A track that fails is abandoned and the next start is tracked, up to
    _MAX_RESTARTS times; each abandoned track's reason leads the returned
    trace's flags.

    Returns (ContinuationTrace, final SolveReport); the final report has
    epsilon 0 and unsigned vertex-to-boundary distances as residuals.
    """
    warnings = _precondition_warnings(p)
    s0 = SmoothedBody(p, _EPS_START_REL * p.inradius)
    search = Counter(seeds=0, converged=0, solutions=0, collapsed_skipped=0)
    starts = _starts(_solutions(s0, search), p.diameter, search)
    restarts = []
    trace = None
    for start in islice(starts, _MAX_RESTARTS + 1):
        steps, flags, final = _track_from(p, start, s0)
        trace = ContinuationTrace(tuple(steps), tuple(restarts + flags), tuple(warnings), dict(search))
        if final is not None:
            return trace, final
        restarts.append(flags[-1])
    if trace is None:
        raise InscriptionFailed(f"the seed search found no inscribed octahedron at epsilon={s0.epsilon:.6g}")
    raise InscriptionFailed(
        f"all {len(restarts)} continuation starts failed (numerical failure of the search, "
        f"not a counterexample): {restarts[-1]}",
        trace=trace,
    )


def _on_facets(s: SmoothedBody, pose: OctahedronPose) -> bool:
    """Every vertex of the pose is nearest to a facet of the inner body."""
    return bool((s.inner_body.nearest_boundary(pose.vertices())[2] == 0).all())


def _track_from(p, start: SolveReport, s0: SmoothedBody):
    """One track down the epsilon ladder from `start`, a solution on the
    smoothed body `s0`.  Returns (steps, flags, final): the ladder's
    SolveReports, the track's flags and the polished report.  A step that
    does not converge or has collapsed, and a polish that does not converge
    or has collapsed, fail the track: final is then None and the last flag
    is the reason.

    Before each halving, from the start on, the ladder ends with the flag
    FLAT_CONTACT once every vertex is nearest to a facet of the current
    inner body: every later step would keep the pose (see the module
    docstring), so the pose goes straight to the polish."""
    diam = p.diameter
    steps, flags = [start], []
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
            return steps, [f"NO_CONVERGENCE at epsilon={eps:.6g}"], None
        if _collapsed(rep.pose, diam):
            return steps, [f"VERTEX_COLLAPSE at epsilon={eps:.6g}"], None
        steps.append(rep)
        pose = rep.pose
    else:
        flags.append(f"FLAT_CONTACT at epsilon={s.epsilon:.6g}")

    final = solve_at_epsilon(p, pose)
    if not final.converged:
        flags.append(f"final polish residual {final.max_residual():.3e} exceeds {final.tol:.3e}")
    elif _collapsed(final.pose, diam):
        flags.append("VERTEX_COLLAPSE in the final polish")
    else:
        return steps, flags, final
    return steps, flags, None


def certify(p: ConvexPolytope, pose: OctahedronPose, tol: float) -> CertifyReport:
    """Re-evaluate the inscription claim: every generated vertex must lie
    within tol of the boundary surface, and the octahedron must not have
    collapsed towards a point (`_collapsed`).  Regularity of the octahedron
    holds by construction of the pose."""
    residuals, _, kind, index = p.nearest_boundary(pose.vertices())
    features = tuple(map(Feature, FEATURE_KINDS[kind], index.tolist()))
    ok = bool(residuals.max() <= tol) and not _collapsed(pose, p.diameter)
    return CertifyReport(ok, residuals, features, float(tol), pose.diameter() / p.diameter)
