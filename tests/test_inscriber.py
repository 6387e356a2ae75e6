import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import octainscribe.inscriber as inscriber
from octainscribe.generators import random_simple_polytope
from octainscribe.inscriber import (
    InscriptionFailed,
    NoSolutionFound,
    certify,
    continue_to_surface,
    multistart,
    residual,
    solve_at_epsilon,
)
from octainscribe.inscriber import _apply_step
from octainscribe.polytope import (
    SmoothedBody,
    build_from_halfspaces,
    build_from_vertices,
    cube,
    regular_octahedron,
    regular_tetrahedron,
)
from octainscribe.pose import OctahedronPose, pose_distance
from octainscribe.rotations import IDENTITY_QUAT

AXES = np.vstack([np.eye(3), -np.eye(3)])


def identity_pose(scale, center=(0.0, 0.0, 0.0)):
    return OctahedronPose(np.array(center), IDENTITY_QUAT, scale)


# -- pose ----------------------------------------------------------------------


def test_pose_generates_regular_octahedron():
    rng = np.random.default_rng(99)
    for _ in range(100):
        pose = OctahedronPose(rng.normal(size=3), rng.normal(size=4), 0.1 + 3 * rng.random())
        V = pose.vertices()
        d = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2)
        # every pairwise distance is 0 (self), an edge sqrt(2) * scale, or
        # a long diagonal 2 * scale, each exact to 1e-12 * scale
        targets = pose.scale * np.array([0.0, math.sqrt(2), 2.0])
        err = np.abs(d[:, :, None] - targets[None, None, :]).min(axis=2)
        assert err.max() <= 1e-12 * pose.scale
        assert np.isclose(d, targets[1]).sum() == 24  # 12 edges, both directions
    with pytest.raises(ValueError):
        OctahedronPose(np.zeros(3), IDENTITY_QUAT, -1.0)


@pytest.mark.parametrize("part", ["center", "rotation", "scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pose_rejects_non_finite_parts(part, bad):
    args = {"center": np.zeros(3), "rotation": np.array(IDENTITY_QUAT, float), "scale": 1.0}
    if part == "scale":
        args[part] = bad
    else:
        args[part][1] = bad
    with pytest.raises(ValueError, match="finite"):
        OctahedronPose(**args)


# -- residual -----------------------------------------------------------------


def test_residual_inside_inner_body_is_minus_eps():
    s = SmoothedBody(cube(), 0.05)
    r, J = residual(s, identity_pose(0.5))
    assert np.allclose(r, -0.05, atol=1e-15)
    assert np.allclose(J[:, :3], 0)  # flat region: no distance gradient


def test_residual_face_center_family():
    s = SmoothedBody(cube(), 0.05)
    r, _ = residual(s, identity_pose(0.95))
    assert np.allclose(r, -0.05, atol=1e-14)
    r, _ = residual(s, identity_pose(1.0))
    assert np.allclose(r, 0.0, atol=1e-14)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(30)
    bodies = [SmoothedBody(cube(), 0.1), SmoothedBody(regular_tetrahedron(), 0.15)]
    h = 1e-7
    checked = 0
    while checked < 1000:
        s = bodies[checked % 2]
        pose = OctahedronPose(
            rng.normal(0, 0.3, 3), rng.normal(size=4), 0.4 + rng.random()
        )
        r, J = residual(s, pose)
        if np.any(np.abs(r + s.epsilon) < 1e-3):  # vertex at the inner-body kink
            continue
        Jfd = np.zeros_like(J)
        for k in range(7):
            d = np.zeros(7)
            d[k] = h
            rp, _ = residual(s, _apply_step(pose, d))
            rm, _ = residual(s, _apply_step(pose, -d))
            Jfd[:, k] = (rp - rm) / (2 * h)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - Jfd).max() / scale <= 1e-5
        checked += 1


def test_exact_residual_sign_convention():
    c = cube()
    r, _ = residual(c, identity_pose(0.5))
    assert np.all(r < 0)  # strictly inside
    r, _ = residual(c, identity_pose(1.0))
    assert np.allclose(r, 0.0, atol=1e-14)
    r, _ = residual(c, identity_pose(1.5))
    assert np.all(r > 0)


# -- solve_at_epsilon ----------------------------------------------------------


def test_solve_cube_face_center():
    s = SmoothedBody(cube(), 0.1)
    rep = solve_at_epsilon(s, identity_pose(0.9))
    assert rep.converged
    assert rep.pose.scale == pytest.approx(1.0, abs=1e-10)
    assert rep.max_residual() <= rep.tol
    assert "rank_deficient_jacobian" in rep.warnings  # symmetric solution


def test_solve_reports_failure_honestly():
    s = SmoothedBody(cube(), 0.1)
    # a hopeless seed far outside with a tiny iteration budget
    rep = solve_at_epsilon(s, identity_pose(0.05, center=(50, 50, 50)), max_iter=3)
    assert not rep.converged
    assert rep.max_residual() > rep.tol


def test_converged_report_recheck():
    s = SmoothedBody(regular_tetrahedron(), 0.1)
    rep = solve_at_epsilon(s, identity_pose(0.9))
    assert rep.converged
    r, _ = residual(s, rep.pose)
    assert np.abs(r).max() <= rep.tol


# -- multistart -----------------------------------------------------------------


def test_multistart_cube_finds_face_center_first():
    s = SmoothedBody(cube(), 0.1)
    reports = multistart(s)
    assert reports
    first = reports[0]
    assert first.pose.scale == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(first.pose.center, 0, atol=1e-9)
    # solutions are distinct modulo the octahedron's rotation group
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            assert pose_distance(reports[i].pose, reports[j].pose) >= 1e-6 * s.base.diameter


def test_multistart_empty_seed_grid(monkeypatch):
    s = SmoothedBody(cube(), 0.1)
    monkeypatch.setattr(inscriber, "_seed_poses", lambda s, n_rotations: iter(()))
    with pytest.raises(NoSolutionFound):
        multistart(s)


@pytest.mark.parametrize("n_rotations", [0, -5])
def test_non_positive_rotation_count_rejected(n_rotations):
    c = cube()
    with pytest.raises(ValueError, match="n_rotations"):
        multistart(SmoothedBody(c, 0.1), n_rotations)
    with pytest.raises(ValueError, match="n_rotations"):
        continue_to_surface(c, n_rotations=n_rotations)


# -- continuation ----------------------------------------------------------------


def test_cube_continuation_matches_face_center_octahedron():
    c = cube()
    trace, final = continue_to_surface(c)
    assert final.converged
    assert final.epsilon == 0.0
    V = final.pose.vertices()
    d = np.linalg.norm(V[:, None, :] - AXES[None, :, :], axis=2)
    assert d.min(axis=1).max() <= 1e-9
    eps = [e for e, _ in trace.steps]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert all(r.converged for _, r in trace.steps)


def test_tetrahedron_continuation_matches_edge_midpoints():
    t = regular_tetrahedron()
    # edge midpoints of this tetrahedron are exactly the coordinate axes
    mids = np.array([
        (t.vertices[i] + t.vertices[j]) / 2 for i, j in t.edge_array
    ])
    assert np.allclose(np.sort(np.abs(mids).max(axis=1)), 1.0)
    trace, final = continue_to_surface(t)
    V = final.pose.vertices()
    d = np.linalg.norm(V[:, None, :] - AXES[None, :, :], axis=2)
    assert d.min(axis=1).max() <= 1e-5
    assert final.max_residual() <= 1e-8


def test_continuation_deterministic():
    c = regular_tetrahedron()
    t1, f1 = continue_to_surface(c)
    t2, f2 = continue_to_surface(c)
    assert json.dumps(t1.to_dict()) == json.dumps(t2.to_dict())
    assert json.dumps(f1.to_dict()) == json.dumps(f2.to_dict())


def test_sharp_square_pyramid_succeeds_with_warning():
    r = 0.12
    base = np.array([[r, 0, 1], [0, r, 1], [-r, 0, 1], [0, -r, 1]]) * 3.0
    p = build_from_vertices(np.vstack([[0, 0, 0], base]))
    trace, final = continue_to_surface(p)
    assert final.converged
    assert certify(p, final.pose, 1e-8 * p.diameter).ok
    assert any("not simple" in w for w in trace.warnings)
    assert any("not guaranteed" in w for w in trace.warnings)


def test_needle_tetrahedron_keeps_positive_diameter():
    # one sharp (special) corner, the other corners wide open
    apex = np.zeros(3)
    base = []
    for az in (0.0, 2 * math.pi / 3, 4 * math.pi / 3):
        d = np.array([0.22 * math.cos(az), 0.22 * math.sin(az), 1.0])
        base.append(3.0 * d / np.linalg.norm(d))
    body = build_from_vertices(np.vstack([apex, base]))
    from octainscribe.angles import ClassTag, classify_trihedral
    from octainscribe.polytope import solid_angle_at

    apex_idx = int(np.argmin(np.linalg.norm(body.vertices, axis=1)))
    assert classify_trihedral(solid_angle_at(body, apex_idx)).tag is ClassTag.SPECIAL
    trace, final = continue_to_surface(body)
    assert final.converged
    assert min(trace.diameter_history) > 1e-3 * body.diameter


def _count_solves(monkeypatch, bound=None):
    """Record the smoothing parameter of every solve_at_epsilon call; past
    `bound` calls, fail at once."""
    epsilons = []
    real = inscriber.solve_at_epsilon

    def counted(s, *args, **kwargs):
        epsilons.append(s.epsilon)
        if bound is not None and len(epsilons) > bound:
            raise AssertionError(f"more than {bound} solve_at_epsilon calls")
        return real(s, *args, **kwargs)

    monkeypatch.setattr(inscriber, "solve_at_epsilon", counted)
    return epsilons


def _pose_key(pose):
    return (*pose.center.tolist(), *pose.rotation.tolist(), pose.scale)


def test_continuation_skips_collapsed_starts():
    threshold = inscriber._COLLAPSE_THRESHOLD_REL
    rng = np.random.default_rng(2024)  # the bodies of acceptance criterion 3
    moved = 0
    for p in (random_simple_polytope(rng) for _ in range(20)):
        first = multistart(SmoothedBody(p, 0.2 * p.inradius))[0]
        if first.pose.diameter() >= threshold * p.diameter:
            continue
        moved += 1
        trace, _ = continue_to_surface(p)
        start = trace.steps[0][1]
        assert start.pose.diameter() >= threshold * p.diameter
        assert not any(f.startswith("VERTEX_COLLAPSE") for f in trace.flags)
        assert trace.initial_search["collapsed_skipped"] >= 1
    assert moved > 0


@pytest.mark.parametrize("threshold", [1e-3, 10.0], ids=["default", "every_pose_collapsed"])
def test_fallback_queue_puts_first_non_collapsed_start_first(monkeypatch, threshold):
    # With threshold 10 no pose counts as uncollapsed, and the first
    # solution in seed order leads.
    p = random_simple_polytope(np.random.default_rng(2024))
    monkeypatch.setattr(inscriber, "_COLLAPSE_THRESHOLD_REL", threshold)
    found = multistart(SmoothedBody(p, 0.2 * p.inradius))
    assert found[0].pose.diameter() < 1e-3 * p.diameter
    big = [r for r in found if r.pose.diameter() >= threshold * p.diameter]
    first = big[0] if big else found[0]
    rest = sorted((r for r in found if r is not first), key=lambda r: -r.pose.scale)
    expected = [_pose_key(r.pose) for r in [first] + rest][: inscriber._MAX_RESTARTS + 1]

    tried = []

    def failing(p, start, *args):
        tried.append(_pose_key(start.pose))
        raise InscriptionFailed("forced failure")

    monkeypatch.setattr(inscriber, "_track_from", failing)
    with pytest.raises(InscriptionFailed, match="all 4 continuation starts failed"):
        continue_to_surface(p)
    assert tried == expected


def _forbid_multistart(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("continue_to_surface called multistart")

    monkeypatch.setattr(inscriber, "multistart", forbidden)


def _not_converged(rep):
    return replace(rep, converged=False)


def _shrunk(rep):
    pose = rep.pose
    return replace(rep, pose=OctahedronPose(pose.center, pose.rotation, 1e-9 * pose.scale))


@pytest.mark.parametrize(
    "step, spoil, reason",
    [(3, _not_converged, "NO_CONVERGENCE"), (2, _shrunk, "VERTEX_COLLAPSE")],
    ids=["no_convergence", "collapse"],
)
def test_failed_step_ends_the_track(monkeypatch, step, spoil, reason):
    # Spoil one ladder step of the first track on the tetrahedron, whose
    # track never reaches the flat-contact exit: the call certifies from
    # the next start, and the abandoned track's reason leads the flags.
    c = regular_tetrahedron()
    eps0 = 0.2 * c.inradius
    ladder = []
    real = inscriber.solve_at_epsilon

    def solve(s, *args, **kwargs):
        rep = real(s, *args, **kwargs)
        if s.epsilon < eps0:
            ladder.append(s.epsilon)
            if len(ladder) == step:
                return spoil(rep)
        return rep

    monkeypatch.setattr(inscriber, "solve_at_epsilon", solve)
    _forbid_multistart(monkeypatch)
    trace, final = continue_to_surface(c, eps0)
    assert trace.flags[0] == f"{reason} at epsilon={ladder[step - 1]:.6g}"
    assert all(f.startswith("FLAT_CONTACT") for f in trace.flags[1:])
    assert trace.initial_search["solutions"] >= 2
    assert certify(c, final.pose, 1e-7 * c.diameter).ok


def _never_flat(monkeypatch):
    # The flat-contact exit off: the ladder runs down to the exact switch.
    monkeypatch.setattr(inscriber, "_on_facets", lambda s, pose: False)


def test_degenerate_inner_body_ends_the_ladder(monkeypatch, spiky_body, inner_bodies_fail_below):
    # The flat-contact exit would end this body's ladder first, so it is
    # turned off; the fifth halving is the first rung that cannot be built.
    p = spiky_body
    eps0 = 0.2 * p.inradius
    _forbid_multistart(monkeypatch)
    _never_flat(monkeypatch)
    inner_bodies_fail_below(eps0 / 20)
    trace, final = continue_to_surface(p)
    assert [e for e, _ in trace.steps] == [eps0 / 2**k for k in range(5)]
    assert trace.flags == (f"INNER_BODY_DEGENERATE at epsilon={eps0 / 32:.6g}",)
    assert certify(p, final.pose, 1e-7 * p.diameter).ok


def test_spiky_inner_bodies_build_down_the_ladder(monkeypatch, spiky_body):
    # With the flat-contact exit off, the ladder runs every rung down to
    # the exact switch, and each inner body equals the outside-input build
    # of the pushed-in halfspaces.
    p = spiky_body
    _never_flat(monkeypatch)
    trace, final = continue_to_surface(p)
    assert len(trace.steps) == 14
    assert trace.flags == ()
    assert certify(p, final.pose, 1e-7 * p.diameter).ok
    tol = 1e-12 * p.diameter
    for eps, _ in trace.steps:
        inner = SmoothedBody(p, eps).inner_body
        ref = build_from_halfspaces(p.normals, p.offsets - eps)
        for name in ("cycles", "starts", "edge_array"):
            assert np.array_equal(getattr(inner, name), getattr(ref, name)), name
        assert np.abs(inner.vertices - ref.vertices).max() <= tol
        assert np.abs(inner.normals - ref.normals).max() <= tol
        assert np.abs(inner.offsets - ref.offsets).max() <= tol


def _pose_bits(pose):
    return np.concatenate([pose.center, pose.rotation, [pose.scale]]).tobytes()


def _ladder_bodies():
    """The 20 bodies of acceptance criterion 3, then the shapes of the
    inscribe_facets benchmark: 8, 16, 32 and 64 halfspaces tangent to the
    unit sphere."""
    rng = np.random.default_rng(2024)
    bodies = [random_simple_polytope(rng) for _ in range(20)]
    shapes = np.random.default_rng(2024)
    for f in (8, 16, 32, 64):
        while True:
            N = shapes.normal(size=(f, 3))
            N /= np.linalg.norm(N, axis=1, keepdims=True)
            if ConvexHull(N).equations[:, 3].max() < -0.2:
                bodies.append(build_from_halfspaces(N, np.ones(f)))
                break
    return bodies


def test_flat_contact_exit_keeps_the_full_ladder_pose(monkeypatch):
    for p in _ladder_bodies():
        trace, final = continue_to_surface(p)
        assert [f for f in trace.flags if f.startswith("FLAT_CONTACT")] == [
            f"FLAT_CONTACT at epsilon={trace.steps[-1][0]:.6g}"
        ]
        with monkeypatch.context() as m:
            _never_flat(m)
            full_trace, full = continue_to_surface(p)
        assert len(full_trace.steps) > len(trace.steps)
        assert [_pose_bits(r.pose) for _, r in full_trace.steps[: len(trace.steps)]] == [
            _pose_bits(r.pose) for _, r in trace.steps
        ]
        assert _pose_bits(full.pose) == _pose_bits(final.pose)


@pytest.mark.parametrize("body", [regular_tetrahedron, regular_octahedron])
def test_vertex_contacts_run_the_full_ladder(monkeypatch, body):
    # The edge midpoints of the tetrahedron and the vertices of the
    # octahedron are never facet-interior, so the exit test says no before
    # every halving and the ladder runs down to the exact switch.
    answers = []
    real = inscriber._on_facets

    def recorded(s, pose):
        answers.append(real(s, pose))
        return answers[-1]

    monkeypatch.setattr(inscriber, "_on_facets", recorded)
    trace, _ = continue_to_surface(body())
    assert len(trace.steps) == 16
    assert answers == [False] * 16
    assert not any(f.startswith("FLAT_CONTACT") for f in trace.flags)


def test_cube_exits_at_the_start():
    c = cube()
    trace, final = continue_to_surface(c)
    assert trace.flags == ("FLAT_CONTACT at epsilon=0.2",)
    assert len(trace.steps) == 1
    assert certify(c, final.pose, 1e-10).ok


def test_exit_at_step_k_builds_k_plus_one_smoothed_bodies(monkeypatch):
    builds = []

    class Counted(SmoothedBody):
        def __init__(self, base, epsilon):
            builds.append(epsilon)
            super().__init__(base, epsilon)

    monkeypatch.setattr(inscriber, "SmoothedBody", Counted)
    exits = []
    for p in [cube()] + _ladder_bodies()[:6]:
        builds.clear()
        trace, _ = continue_to_surface(p)
        assert trace.flags == (f"FLAT_CONTACT at epsilon={trace.steps[-1][0]:.6g}",)
        assert builds == [e for e, _ in trace.steps]
        exits.append(len(trace.steps) - 1)
    assert exits[0] == 0 and max(exits) > 0


def test_fallback_queue_draws_at_most_max_solutions(monkeypatch):
    # The thin body of test_thin_body_finishes_in_bounded_solves has 26
    # solutions at eps0, and only the last has not collapsed.  With no pose
    # counted as collapsed the first solution is the start, and with every
    # track failing the queue draws no more than _MAX_SOLUTIONS in total.
    rng = np.random.default_rng(1)
    p = [random_simple_polytope(rng, n) for n in range(6, 13)][-1]
    assert len(multistart(SmoothedBody(p, 0.2 * p.inradius))) > inscriber._MAX_SOLUTIONS
    monkeypatch.setattr(inscriber, "_COLLAPSE_THRESHOLD_REL", 0.0)
    pulled = []
    real = inscriber._solutions

    def counted(*args):
        for rep in real(*args):
            pulled.append(rep)
            yield rep

    def failing(p, start, *args):
        raise InscriptionFailed("forced failure")

    monkeypatch.setattr(inscriber, "_solutions", counted)
    monkeypatch.setattr(inscriber, "_track_from", failing)
    with pytest.raises(InscriptionFailed, match="all 4 continuation starts failed"):
        continue_to_surface(p)
    assert len(pulled) == inscriber._MAX_SOLUTIONS


def test_initial_search_counts_seeds(monkeypatch):
    c = cube()
    epsilons = _count_solves(monkeypatch)
    trace, _ = continue_to_surface(c)
    eps0 = trace.steps[0][0]
    search = trace.to_dict()["initial_search"]
    assert search["seeds"] == sum(e == eps0 for e in epsilons) >= 1
    assert search["converged"] == search["solutions"] == 1
    assert search["collapsed_skipped"] == 0


def test_thin_body_finishes_in_bounded_solves(monkeypatch):
    # Inradius 0.0077 * diameter: no inscribed octahedron reaches the
    # 0.05 * diameter stop scale, so a seed loop stopped by that scale
    # alone runs its whole grid of about 4500 seeds.
    rng = np.random.default_rng(1)
    p = [random_simple_polytope(rng, n) for n in range(6, 13)][-1]
    assert p.inradius < 0.01 * p.diameter
    solves = _count_solves(monkeypatch, bound=300)
    assert multistart(SmoothedBody(p, 0.2 * p.inradius))
    solves.clear()
    _, final = continue_to_surface(p)
    assert certify(p, final.pose, 1e-7 * p.diameter).ok


# -- certify ----------------------------------------------------------------------


def test_certify_cases():
    c = cube()
    good = identity_pose(1.0)
    assert certify(c, good, 1e-10).ok
    assert not certify(c, identity_pose(0.5), 1e-10).ok
    assert not certify(c, identity_pose(1.0, center=(3, 0, 0)), 1e-10).ok


@pytest.mark.parametrize("at", [(1, 1, 1), (1, 1, 0), (1, 0, 0)], ids=["vertex", "edge", "facet"])
def test_certify_rejects_a_collapsed_octahedron(at):
    # Every vertex lies within tol of the boundary, but the octahedron has
    # shrunk to 2e-9 diameters: the collapse the continuation guards against.
    c = cube()
    tol = 1e-7 * c.diameter
    report = certify(c, identity_pose(1e-9 * c.diameter, center=at), tol)
    assert report.residuals.max() <= tol
    assert report.diameter_ratio == pytest.approx(2e-9)
    assert not report.ok
    assert certify(c, identity_pose(1.0), tol).diameter_ratio == pytest.approx(1 / math.sqrt(3))


def test_collapsed_polish_fails_the_track(monkeypatch):
    polish = inscriber._polish_exact

    def shrunk(p, seed):
        rep = polish(p, seed)
        return replace(rep, pose=OctahedronPose(rep.pose.center, rep.pose.rotation, 1e-9))

    monkeypatch.setattr(inscriber, "_polish_exact", shrunk)
    with pytest.raises(InscriptionFailed) as failed:
        continue_to_surface(cube())
    assert failed.value.trace.flags[-1] == "VERTEX_COLLAPSE in the final polish"


def test_certify_reports_lowest_dimensional_feature():
    def facet_of(body, x):
        return int(np.argmax(body.normals @ x))

    def edge_through(body, x):
        # the one edge whose open segment holds x
        (ei,) = [
            ei
            for ei, (i, j) in enumerate(body.edge_array)
            if np.linalg.norm(np.cross(body.vertices[j] - x, body.vertices[i] - x)) < 1e-12
            and np.dot(body.vertices[i] - x, body.vertices[j] - x) < 0
        ]
        return ei

    def vertex_at(body, x):
        return int(np.argmin(np.linalg.norm(body.vertices - x, axis=1)))

    def features(body, pose):
        return [(f.kind, f.index) for f in certify(body, pose, 1e-10).features]

    c = cube()
    V = identity_pose(1.0).vertices()
    assert features(c, identity_pose(1.0)) == [("facet", facet_of(c, x)) for x in V]

    # Rotated 45 degrees about z: the four equatorial vertices sit at edge
    # midpoints (+-1, +-1, 0), the two polar ones outside the z facets.
    q = np.array([math.cos(math.pi / 8), 0.0, 0.0, math.sin(math.pi / 8)])
    turned = OctahedronPose(np.zeros(3), q, math.sqrt(2))
    V = turned.vertices()
    expected = [("edge", edge_through(c, x)) for x in V[:4]]
    expected += [("facet", facet_of(c, x)) for x in V[4:]]
    assert len({i for _, i in expected[:4]}) == 4
    assert features(c, turned) == expected

    o = regular_octahedron()
    V = identity_pose(1.0).vertices()
    assert features(o, identity_pose(1.0)) == [("vertex", vertex_at(o, x)) for x in V]


def test_certify_idempotent_on_final_reports():
    for body in (cube(), regular_tetrahedron()):
        _, final = continue_to_surface(body)
        report = certify(body, final.pose, 2 * max(final.max_residual(), 1e-15))
        assert report.ok
        assert np.allclose(report.residuals, final.residuals, atol=1e-12)
