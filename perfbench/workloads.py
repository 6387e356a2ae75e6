"""The benchmark's workloads: inputs made from a seed, the operation the
program runs on one input, and the checks on each output.

Every workload has a fixed family of shapes, drawn once from the seed of
the acceptance criterion it follows.  The benchmark seed translates each
shape by its own random offset, so the program sees other coordinates on
every seed while the work per op stays the same, and the spread between
seeds shows the program and the machine, not a new mix of easy and hard
shapes.  Seeds do not rotate the shapes: the solver's and the oracle's
search grids are fixed in world space, so the cost of an op depends on
the orientation of its input, and with rotations the spread between runs
of this length was 0.2 to 0.3.

Inputs are generated in set-up; an operation receives only arrays.  It
looks program functions up through their modules at call time
(`polytope.build_from_halfspaces`, not a name bound at import), so the
tracer's wrappers see every call.  Checks and digests run outside the
timed operation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize
from scipy.spatial import ConvexHull

from octainscribe import angles, generators, inscriber, oracle, polytope, sphere
from octainscribe.pose import OctahedronPose

# Acceptance-level bounds (criteria 3, 4 and 5 of the acceptance suite).
INSCRIBE_TOL_REL = 1e-7       # certify at 1e-7 * diameter
WITNESS_PLANE_REL = 1e-8      # witness facet-plane residual <= 1e-8 * scale
CLEAR_MARGIN = 1e-3           # oracle disagreement beyond this margin is a bug
SKIP_MARGIN = 1e-6            # criterion 5 skips triangles closer than this

# Output digests round poses to 1e-9 * diameter and margins to 1e-12.
POSE_GRID_REL = 1e-9
MARGIN_GRID = 1e-12


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable   # seed -> list of inputs; inputs[0] is the warm-up op
    op: Callable            # input -> output (timed)
    check: Callable         # (input, output) -> (ok, agrees); agrees is None without a reference
    digest: Callable        # (input, output) -> str


# ---------------------------------------------------------------------------
# Digests.


def _pose_key(pose, diameter):
    grid = POSE_GRID_REL * diameter
    return np.round(pose.vertices() / grid).astype(np.int64).tobytes().hex()


def _margin_key(margin):
    return repr(round(float(margin) / MARGIN_GRID))


def inputs_digest(inputs):
    """Hash of the exact input arrays, to show that set-up is repeatable."""
    h = hashlib.sha256()

    def feed(part):
        if part is None:
            h.update(b"-")
        elif isinstance(part, (tuple, list)):
            for item in part:
                feed(item)
        elif isinstance(part, OctahedronPose):
            h.update(np.ascontiguousarray(part.vertices()).tobytes())
        else:
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())

    feed(inputs)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Inscription: halfspaces -> build_from_halfspaces -> continue_to_surface -> certify.


def _moved_halfspaces(rng, normals, offsets):
    """Translate a halfspace list by a random offset."""
    return normals, offsets + normals @ rng.normal(size=3)


INSCRIBE_RANDOM_BODIES = 10


def _inscribe_random_inputs(seed):
    """The first 10 of the 20 bodies of acceptance criterion 3
    (random_simple_polytope, seed 2024, 6-12 facets), moved by the
    benchmark seed.  The body with the fewest facets goes first, so the
    warm-up op is a cheap one."""
    shapes = np.random.default_rng(2024)
    bodies = [generators.random_simple_polytope(shapes) for _ in range(INSCRIBE_RANDOM_BODIES)]
    first = min(range(len(bodies)), key=lambda i: len(bodies[i].normals))
    bodies.insert(0, bodies.pop(first))
    rng = np.random.default_rng(seed)
    return [_moved_halfspaces(rng, p.normals, p.offsets) for p in bodies]


FACET_COUNTS = (8, 16, 32, 64)
# The origin must lie this far inside the hull of the normals, which keeps
# every body within radius 1 / FACET_HULL_MARGIN of the origin.
FACET_HULL_MARGIN = 0.2


def _inscribe_facets_inputs(seed):
    """Bodies of F = 8, 16, 32, 64 halfspaces tangent to the unit sphere,
    normals uniform on the sphere (seed 2024), moved by the benchmark
    seed.  A tangent halfspace touches the sphere at its own normal, where
    no other one is tight, so every facet is realized.  A normal set is
    drawn again while the body is unbounded or nearly so, that is while
    the origin is not well inside the hull of the normals."""
    shapes = np.random.default_rng(2024)
    rng = np.random.default_rng(seed)
    inputs = []
    for f in FACET_COUNTS:
        while True:
            N = shapes.normal(size=(f, 3))
            N /= np.linalg.norm(N, axis=1, keepdims=True)
            if ConvexHull(N).equations[:, 3].max() < -FACET_HULL_MARGIN:
                inputs.append(_moved_halfspaces(rng, N, np.ones(f)))
                break
    return inputs


def _inscribe(inp):
    normals, offsets = inp
    body = polytope.build_from_halfspaces(normals, offsets)
    trace, final = inscriber.continue_to_surface(body)
    cert = inscriber.certify(body, final.pose, INSCRIBE_TOL_REL * body.diameter)
    return body, trace, final, cert


def _check_inscribe(inp, out):
    """ok: certify passes at the criterion-3 bound.  Reference: every
    octahedron vertex is on the boundary by the support-function test
    over the input halfspaces, max_i(n_i . x - d_i) in [-tol, tol], which
    shares no code with certify's nearest-feature search."""
    body, _, final, cert = out
    normals, offsets = inp
    norms = np.linalg.norm(normals, axis=1)
    slack = final.pose.vertices() @ (normals / norms[:, None]).T - (offsets / norms)[None, :]
    tol = INSCRIBE_TOL_REL * body.diameter
    return bool(cert.ok), bool(np.all(np.abs(slack.max(axis=1)) <= tol))


def _digest_inscribe(inp, out):
    body, trace, final, _ = out
    return "|".join([_pose_key(final.pose, body.diameter), str(len(trace.steps)), *trace.flags])


# ---------------------------------------------------------------------------
# Classification of solid angles.

CLASSIFY_BATCHES = 64
BATCH = 8                     # trihedral angles per op
CONE4_EVERY = 8               # every 8th op also holds one four-edge cone


def _unit_rows(edges):
    E = np.asarray(edges, dtype=float)
    return E / np.linalg.norm(E, axis=1, keepdims=True)


def _sides(edges):
    E = _unit_rows(edges)
    return [math.acos(min(1.0, max(-1.0, float(E[i] @ E[j])))) for i, j in ((0, 1), (0, 2), (1, 2))]


def _path(edges):
    top = max(_sides(edges))
    if top > angles.T0_SIDE + sphere.DEFAULT_TOL:
        return "large"
    if top < math.pi / 6.0 - sphere.DEFAULT_TOL:
        return "small"
    return "placement"


def _classify_inputs(seed):
    """64 ops of 8 angles from random_trihedral_angle (seed 2024), about
    half of which take a threshold fast path; every 8th op also holds one
    four-edge cone from nonsimple_inscribed_cone (seed 808, criterion 8)
    with its known inscribed octahedron.  The benchmark seed places each
    apex.  One op is a batch, as when every vertex of a small body is
    classified: the latency of a single angle has separate modes for the
    fast path and the placement test, with about half the angles in each,
    so its median jumps between modes from run to run."""
    shapes = np.random.default_rng(2024)
    cones = np.random.default_rng(808)
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(CLASSIFY_BATCHES):
        batch = [
            (rng.normal(size=3), generators.random_trihedral_angle(shapes).edges.copy(), None)
            for _ in range(BATCH)
        ]
        if k % CONE4_EVERY == CONE4_EVERY - 1:
            cone, pose = generators.nonsimple_inscribed_cone(cones)
            apex = rng.normal(size=3)
            moved = OctahedronPose(pose.center - cone.apex + apex, pose.rotation, pose.scale)
            batch.append((apex, cone.edges.copy(), moved))
        ops.append(tuple(batch))
    return ops


def _classify(batch):
    return [_classify_one(apex, edges) for apex, edges, _ in batch]


def _classify_one(apex, edges):
    angle = angles.SolidAngle(apex, edges)
    if len(edges) != 3:
        return angle, angles.classify_general(angle), None
    verdict = angles.classify_trihedral(angle)
    witness = None
    if verdict.tag is angles.ClassTag.SPECIAL:
        witness = angles.construct_inscribed_octahedron(angle, verdict.certificate)
    return angle, verdict, witness


def _facet_plane_residual(edges, apex, pose):
    """Max over octahedron vertices of the distance to the nearest facet
    plane among the facets whose sector holds the vertex, computed from
    the input edges alone (criterion 4)."""
    E = _unit_rows(edges)
    worst = 0.0
    for x in pose.vertices() - apex:
        best = math.inf
        for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            n = np.cross(E[a], E[b])
            n /= np.linalg.norm(n)
            if n @ E[c] > 0:
                n = -n
            alpha, beta, gamma = np.linalg.solve(np.column_stack([E[a], E[b], n]), x)
            lim = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            if alpha >= -lim and beta >= -lim:
                best = min(best, abs(gamma))
        worst = max(worst, best)
    return worst


def _check_classify(batch, outs):
    """Every angle of the op must pass; every reference must agree."""
    results = [_check_one_angle(inp, out) for inp, out in zip(batch, outs)]
    refs = [agrees for _, agrees in results if agrees is not None]
    return all(ok for ok, _ in results), (all(refs) if refs else None)


def _check_one_angle(inp, out):
    """ok: four-edge cones are never NO_FIT (criterion 8); threshold
    verdicts match their threshold; SPECIAL witnesses sit on the facet
    planes within 1e-8 * scale (criterion 4).  References: the exact
    placement test for threshold verdicts, oracle.inscribed_in_cone_check
    for witnesses, and the generator's known octahedron for four-edge
    cones; placement-test verdicts without a witness have none."""
    apex, edges, known = inp
    angle, verdict, witness = out
    if known is not None:
        fits = verdict.fit.tag is not angles.FitTag.NO_FIT
        return fits, fits and oracle.inscribed_in_cone_check(angle, known, tol=1e-8)
    ok, agrees = True, None
    path = _path(edges)
    if path != "placement":
        expected = angles.ClassTag.NON_SPECIAL if path == "large" else angles.ClassTag.SPECIAL
        ok = verdict.tag is expected
        exact = angles.placement_test(sphere.SphTriangle(*_unit_rows(edges)))
        agrees = exact.tag is verdict.tag
    if witness is not None:
        ok = ok and _facet_plane_residual(edges, apex, witness) <= WITNESS_PLANE_REL * witness.scale
        on_cone = oracle.inscribed_in_cone_check(angle, witness, tol=1e-8)
        agrees = on_cone if agrees is None else agrees and on_cone
    return ok, agrees


def _digest_classify(batch, outs):
    return "/".join(_digest_one_angle(inp, out) for inp, out in zip(batch, outs))


def _digest_one_angle(inp, out):
    _, verdict, witness = out
    if inp[2] is not None:
        return f"{verdict.kind.value}|{verdict.fit.tag.value}|{_margin_key(verdict.fit.margin)}"
    parts = [verdict.tag.value, _margin_key(verdict.margin)]
    if witness is not None:
        parts.append(_pose_key(witness, witness.diameter()))
    return "|".join(parts)


# ---------------------------------------------------------------------------
# Placement test against the independent oracle (criterion 5).

CROSSCHECK_TRIANGLES = 24
_SEARCH = oracle.DirectSearchConfig(stop_at_first=True)


def _crosscheck_inputs(seed):
    """The first 24 triangles of acceptance criterion 5 (random_triangle,
    seed 505, skipping any whose placement margin is below 1e-6), each
    with an apex placed by the benchmark seed."""
    shapes = np.random.default_rng(505)
    rng = np.random.default_rng(seed)
    inputs = []
    while len(inputs) < CROSSCHECK_TRIANGLES:
        tri = generators.random_triangle(shapes)
        if abs(angles.placement_test(tri).margin) >= SKIP_MARGIN:
            inputs.append((tri.matrix.copy(), rng.normal(size=3)))
    return inputs


def _crosscheck(inp):
    vertices, apex = inp
    tri = sphere.SphTriangle(*vertices)
    verdict = angles.placement_test(tri)
    search = oracle.direct_angle_search(angles.SolidAngle.from_triangle(tri, apex), _SEARCH)
    return verdict, search


def _check_crosscheck(inp, out):
    """Reference: the oracle finds an inscribed octahedron exactly when the
    placement test says SPECIAL.  A disagreement fails the op only when
    the margin is clear of the decision boundary."""
    verdict, search = out
    agrees = bool(search.poses) == (verdict.tag is angles.ClassTag.SPECIAL)
    return agrees or abs(verdict.margin) < CLEAR_MARGIN, agrees


def _digest_crosscheck(inp, out):
    verdict, search = out
    parts = [verdict.tag.value, _margin_key(verdict.margin), str(len(search.poses))]
    parts += [_pose_key(p, p.diameter()) for p in search.poses]
    return "|".join(parts)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "inscribe_random": Workload(_inscribe_random_inputs, _inscribe, _check_inscribe, _digest_inscribe),
    "inscribe_facets": Workload(_inscribe_facets_inputs, _inscribe, _check_inscribe, _digest_inscribe),
    "classify": Workload(_classify_inputs, _classify, _check_classify, _digest_classify),
    "crosscheck": Workload(_crosscheck_inputs, _crosscheck, _check_crosscheck, _digest_crosscheck),
}


def traced_names():
    """(owner, attribute, span name, note) for every name the traced run
    wraps.  Notes keep only what the return value tells about the work."""
    return [
        (polytope.SmoothedBody, "__init__", "polytope.SmoothedBody", None),
        (polytope, "build_from_halfspaces", "polytope.build_from_halfspaces", None),
        (polytope, "linprog", "polytope.linprog", None),
        (polytope.ConvexPolytope, "nearest_boundary", "polytope.nearest_boundary", lambda r: len(r[0])),
        (polytope.SmoothedBody, "signed_distance", "polytope.signed_distance", None),
        (polytope, "distance_to_boundary", "polytope.distance_to_boundary", None),
        (angles.SolidAngle, "__init__", "angles.SolidAngle", None),
        (angles, "classify_trihedral", "angles.classify_trihedral", None),
        (angles, "placement_test", "angles.placement_test", None),
        (angles, "construct_inscribed_octahedron", "angles.construct_inscribed_octahedron", None),
        (angles, "fits_in_T0", "angles.fits_in_T0", None),
        # angles and sphere each look hemisphere_axis up in their own globals;
        # scipy's linprog is looked up at call time only by hemisphere_axis.
        (angles, "hemisphere_axis", "sphere.hemisphere_axis", None),
        (sphere, "hemisphere_axis", "sphere.hemisphere_axis", None),
        (scipy.optimize, "linprog", "scipy.optimize.linprog", None),
        (inscriber, "multistart", "inscriber.multistart", len),
        (inscriber, "solve_at_epsilon", "inscriber.solve_at_epsilon", lambda r: (r.iterations, r.converged)),
        (inscriber, "residual", "inscriber.residual", None),
        (
            inscriber,
            "continue_to_surface",
            "inscriber.continue_to_surface",
            lambda r: (len(r[0].steps), sum(f.startswith("VERTEX_COLLAPSE") for f in r[0].flags)),
        ),
        (inscriber, "certify", "inscriber.certify", None),
        (
            oracle,
            "direct_angle_search",
            "oracle.direct_angle_search",
            lambda r: (bool(r.metadata["stopped_at_first"]), len(r.poses)),
        ),
        (oracle, "least_squares", "oracle.least_squares", lambda r: r.nfev),
    ]
