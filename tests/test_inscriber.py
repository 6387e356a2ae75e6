import json
import math

import numpy as np
import pytest

from octainscribe.inscriber import (
    ContinuationConfig,
    MultistartConfig,
    NoSolutionFound,
    SolverConfig,
    certify,
    continue_to_surface,
    multistart,
    residual,
    solve_at_epsilon,
)
from octainscribe.inscriber import _apply_step, _exact_residual
from octainscribe.polytope import (
    SmoothedBody,
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
    r, _ = _exact_residual(c, identity_pose(0.5))
    assert np.all(r < 0)  # strictly inside
    r, _ = _exact_residual(c, identity_pose(1.0))
    assert np.allclose(r, 0.0, atol=1e-14)
    r, _ = _exact_residual(c, identity_pose(1.5))
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
    rep = solve_at_epsilon(
        s, identity_pose(0.05, center=(50, 50, 50)), SolverConfig(max_iter=3)
    )
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


def test_multistart_empty_seed_grid():
    s = SmoothedBody(cube(), 0.1)
    with pytest.raises(NoSolutionFound):
        multistart(s, MultistartConfig(n_rotations=0, n_scales=0))


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
        (t.vertices[i] + t.vertices[j]) / 2 for i, j in t.edges
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


# -- certify ----------------------------------------------------------------------


def test_certify_cases():
    c = cube()
    good = identity_pose(1.0)
    assert certify(c, good, 1e-10).ok
    assert not certify(c, identity_pose(0.5), 1e-10).ok
    assert not certify(c, identity_pose(1.0, center=(3, 0, 0)), 1e-10).ok


def test_certify_reports_lowest_dimensional_feature():
    def facet_of(body, x):
        return int(np.argmax(body.normals @ x))

    def edge_through(body, x):
        # the one edge whose open segment holds x
        (ei,) = [
            ei
            for ei, (i, j) in enumerate(body.edges)
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
