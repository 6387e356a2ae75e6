import json
import math
import sys
from collections import Counter
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

import octainscribe.inscriber as inscriber
from octainscribe.generators import random_simple_polytope, random_spiky_cloud, tangent_polytope
from octainscribe.inscriber import (
    InscriptionFailed,
    NoSolutionFound,
    certify,
    continue_to_surface,
    multistart,
    residual,
    solve_at_epsilon,
)
from octainscribe.inscriber import _apply_step, _damped_step
from octainscribe.polytope import (
    ConvexPolytope,
    SmoothedBody,
    build_from_halfspaces,
    build_from_vertices,
    cube,
    regular_octahedron,
    regular_tetrahedron,
)
from octainscribe.pose import OctahedronPose, pose_distance
from octainscribe.rotations import super_fibonacci_rotations

AXES = np.vstack([np.eye(3), -np.eye(3)])
IDENTITY = (1.0, 0.0, 0.0, 0.0)


def identity_pose(scale, center=(0.0, 0.0, 0.0)):
    return OctahedronPose(np.array(center), IDENTITY, scale)


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
        OctahedronPose(np.zeros(3), IDENTITY, -1.0)


@pytest.mark.parametrize("part", ["center", "rotation", "scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pose_rejects_non_finite_parts(part, bad):
    args = {"center": np.zeros(3), "rotation": np.array(IDENTITY), "scale": 1.0}
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


def test_solve_reports_failure_honestly(monkeypatch):
    s = SmoothedBody(cube(), 0.1)
    # a hopeless seed far outside with a tiny iteration budget
    monkeypatch.setattr(inscriber, "_MAX_ITER", 3)
    rep = solve_at_epsilon(s, identity_pose(0.05, center=(50, 50, 50)))
    assert not rep.converged
    assert rep.max_residual() > rep.tol


def test_converged_report_recheck():
    s = SmoothedBody(regular_tetrahedron(), 0.1)
    rep = solve_at_epsilon(s, identity_pose(0.9))
    assert rep.converged
    r, _ = residual(s, rep.pose)
    assert np.abs(r).max() <= rep.tol


@pytest.mark.parametrize("lam", [1e-14, 1e-3, 1.0, 1e3])
def test_damped_step_minimizes_the_damped_least_squares(lam):
    # The 6 x 6 step against the 13 x 7 stacked system [J; sqrt(lam) I],
    # on well-conditioned J: singular values in [0.5, 2].
    rng = np.random.default_rng(11)
    for _ in range(50):
        U = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        V = np.linalg.qr(rng.normal(size=(7, 7)))[0]
        J = U @ np.diag(rng.uniform(0.5, 2.0, size=6)) @ V[:6]
        r = rng.normal(size=6)
        stacked = np.vstack([J, math.sqrt(lam) * np.eye(7)])
        ref, *_ = np.linalg.lstsq(stacked, np.concatenate([-r, np.zeros(7)]), rcond=None)
        step = _damped_step(J, r, lam)
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def test_continuation_calls_no_lstsq_from_the_inscriber(monkeypatch):
    callers = []
    lstsq = np.linalg.lstsq

    def recording(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    trace, final = continue_to_surface(cube())
    assert final.converged and sum(r.iterations for r in trace.steps) > 0
    assert "octainscribe.inscriber" not in callers


def _criterion3_bodies():
    rng = np.random.default_rng(2024)
    return [random_simple_polytope(rng) for _ in range(20)]


def test_damping_rises_at_most_13_times_in_a_row(monkeypatch):
    # Nielsen's update scales lambda by nu on a rejection and doubles nu, so
    # 13 rejections in a row raise it by 2^(1 + 2 + ... + 13) = 2^91.  The
    # damping has no cap; the bound holds as measured on these bodies (at
    # most 12 rises in a row, lambda at most 1.0).  A factor of 3 per
    # rejection takes up to 51.
    solves = []
    solve, step = inscriber.solve_at_epsilon, inscriber._damped_step

    def recording_solve(*args, **kwargs):
        solves.append([])
        return solve(*args, **kwargs)

    def recording_step(J, r, lam):
        solves[-1].append(lam)
        return step(J, r, lam)

    monkeypatch.setattr(inscriber, "solve_at_epsilon", recording_solve)
    monkeypatch.setattr(inscriber, "_damped_step", recording_step)
    for p in _criterion3_bodies():
        continue_to_surface(p)
    longest = 0
    for lams in solves:
        rises = 0
        for before, after in zip(lams, lams[1:]):
            rises = rises + 1 if after > before else 0
            longest = max(longest, rises)
    assert len(solves) > 20 and longest <= 13


def counting_residual(monkeypatch):
    """Count the calls of inscriber.residual in the returned list."""
    calls = []
    real = inscriber.residual

    def counting(body, pose):
        calls.append(1)
        return real(body, pose)

    monkeypatch.setattr(inscriber, "residual", counting)
    return calls


def test_criterion_3_takes_at_most_524_residual_evaluations(monkeypatch):
    # About 1.05 x the 499 evaluations measured with the progress stop (539
    # without it, 685 without the stationary exit as well; 891 under a
    # x3 / x0.33 damping schedule).
    calls = counting_residual(monkeypatch)
    for p in _criterion3_bodies():
        continue_to_surface(p)
    assert len(calls) <= 524


def test_every_spiky_body_certifies(monkeypatch):
    # The survey also has a budget: about 1.05 x the 7,365 residual
    # evaluations measured with the progress stop (9,057 without it, 11,812
    # without the stationary exit as well).
    calls = counting_residual(monkeypatch)
    rng = np.random.default_rng(5)
    for k in range(200):
        p = build_from_vertices(random_spiky_cloud(rng))
        trace, final = continue_to_surface(p)
        cert = certify(p, final.pose, 1e-7 * p.diameter)
        assert cert.ok, f"spiky body {k}: residual {cert.residuals.max():.3e}, flags {trace.flags}"
    assert len(calls) <= 7733


def test_seed_at_a_positive_cost_minimum_stops_where_it_is_stationary(monkeypatch):
    # Seed 1 of criterion-3 body 1 runs into a local minimum whose largest
    # residual is 5.3% of the diameter.  The stationary exit stops it after
    # 6 residual evaluations; without it the damping climbs until the step
    # floor ends it after 15, at the same minimum.
    p = _criterion3_bodies()[1]
    s0 = SmoothedBody(p, 0.2 * p.inradius)
    seed = list(islice(inscriber._seed_poses(s0), 2))[1]
    calls = counting_residual(monkeypatch)
    reps = []
    for cos in (inscriber._STATIONARY_COS, 0.0):
        monkeypatch.setattr(inscriber, "_STATIONARY_COS", cos)
        calls.clear()
        reps.append((solve_at_epsilon(s0, seed), len(calls)))
    (rep, spent), (rep_off, spent_off) = reps
    assert not rep.converged and rep.max_residual() > 1e-3 * p.diameter
    assert spent <= 6 < spent_off
    assert not rep_off.converged and pose_distance(rep.pose, rep_off.pose) <= 1e-5 * p.diameter
    assert rep.max_residual() == pytest.approx(rep_off.max_residual(), rel=1e-9)


def test_crawling_seed_stops_at_its_second_progress_checkpoint(monkeypatch):
    # Seed 1 of criterion-3 body 9 crawls along a valley and fails: its cost
    # falls by more than 10% over its first 20 iterations but not over the
    # next 20, so the progress stop ends it after 41 residual evaluations;
    # without the stop it runs to the 80-iteration cap.
    p = _criterion3_bodies()[9]
    s0 = SmoothedBody(p, 0.2 * p.inradius)
    seed = list(islice(inscriber._seed_poses(s0), 2))[1]
    calls = counting_residual(monkeypatch)
    spent = []
    for window in (inscriber._PROGRESS_WINDOW, inscriber._MAX_ITER):
        monkeypatch.setattr(inscriber, "_PROGRESS_WINDOW", window)
        calls.clear()
        rep = solve_at_epsilon(s0, seed)
        assert not rep.converged and rep.max_residual() > 1e-3 * p.diameter
        spent.append(len(calls))
    assert spent == [41, 81]


def reference_levenberg_marquardt(body, pose):
    """The solver loop with the stationary test on every iteration, also
    after a rejected step; it also returns the number of rejected steps."""
    exact = isinstance(body, ConvexPolytope)
    diam = body.diameter if exact else body.base.diameter
    tol = inscriber._TOL_RES_REL * diam
    lam, nu = inscriber._LAMBDA0, 2.0
    res, J = residual(body, pose)
    cost = checkpoint = float(res @ res)
    g = J.T @ res
    iters = rejected = 0
    while iters < inscriber._MAX_ITER and np.abs(res).max() > tol:
        if (np.abs(g) <= inscriber._STATIONARY_COS * np.sqrt(np.einsum("ij,ij->j", J, J) * cost)).all():
            break
        if iters and iters % inscriber._PROGRESS_WINDOW == 0:
            if cost > inscriber._PROGRESS_FACTOR * checkpoint:
                break
            checkpoint = cost
        iters += 1
        delta = _damped_step(J, res, lam)
        if math.sqrt(delta @ delta) < inscriber._STEP_TOL_REL * diam:
            break
        cand = _apply_step(pose, delta)
        cand_res, cand_J = residual(body, cand)
        cand_cost = float(cand_res @ cand_res)
        if cand_cost < cost:
            rho = (cost - cand_cost) / (delta @ (lam * delta - g))
            lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * min(max(rho, 0.0), 1.0) - 1.0) ** 3), 1e-14)
            nu = 2.0
            pose, res, J, cost = cand, cand_res, cand_J, cand_cost
            g = J.T @ res
        else:
            rejected += 1
            lam *= nu
            nu *= 2.0
    converged = bool(np.abs(res).max() <= tol)
    warnings = ()
    if converged:
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < 1e-7 * max(sv[0], 1e-300):
            warnings = ("rank_deficient_jacobian",)
    if exact:
        return inscriber.SolveReport(pose, np.abs(res), iters, converged, 0.0, tol, warnings), rejected
    return inscriber.SolveReport(pose, res, iters, converged, body.epsilon, tol, warnings), rejected


def test_stationary_test_after_accepted_steps_only_keeps_every_report():
    # A rejected step leaves J, g and the cost unchanged, so the solver
    # skips the stationary test after one.  On the first 3 seeds of each
    # criterion-3 body, with failing seeds and rejected steps among them,
    # on the smoothed body and on the polytope itself, every report is
    # byte-identical to the reference loop's.
    failed = rejected = 0
    for p in _criterion3_bodies():
        s0 = SmoothedBody(p, 0.2 * p.inradius)
        for seed in islice(inscriber._seed_poses(s0), 3):
            for body in (s0, p):
                rep = solve_at_epsilon(body, seed)
                want, skipped = reference_levenberg_marquardt(body, seed)
                assert json.dumps(rep.to_dict()) == json.dumps(want.to_dict())
                assert _pose_bits(rep.pose) == _pose_bits(want.pose)
                assert rep.residuals.tobytes() == want.residuals.tobytes()
                failed += not rep.converged
                rejected += skipped
    assert failed > 0 and rejected > 0


def thin_bodies():
    """Thin simple bodies built from vertices: the first 3 criterion-3
    bodies with z scaled by t ("squashed") or y and z by t ("needle"), and
    the boxes [0,1]^2 x [0,t] and [0,1] x [0,t]^2, for t = 1e-1, 1e-2 and
    1e-3.  Squashed at t = 1e-3 is left out (each takes 20-40 s and fails),
    and so is squashed t = 1e-2 #1 (more than 10 s)."""
    rng = np.random.default_rng(2024)
    bases = [random_simple_polytope(rng).vertices for _ in range(3)]
    corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float)
    for t in (1e-1, 1e-2, 1e-3):
        for k, V in enumerate(bases):
            if t > 1e-3 and (t, k) != (1e-2, 1):
                yield f"squashed t={t:g} #{k}", build_from_vertices(V * [1, 1, t])
            yield f"needle t={t:g} #{k}", build_from_vertices(V * [1, t, t])
        yield f"slab t={t:g}", build_from_vertices(corners * [1, 1, t])
        yield f"rod t={t:g}", build_from_vertices(corners * [1, t, t])


def continuation_record(p):
    """The whole outcome of continue_to_surface as JSON text."""
    try:
        trace, final = continue_to_surface(p)
    except InscriptionFailed as exc:
        return json.dumps([str(exc), exc.trace and exc.trace.to_dict()])
    return json.dumps([trace.to_dict(), final.to_dict()])


@pytest.fixture(scope="module")
def outcome_records():
    """(name, body, continuation_record) of the 20 criterion-3 bodies and
    the 20 thin bodies, with every stop of the solver enabled."""
    bodies = [(f"criterion 3 #{k}", p) for k, p in enumerate(_criterion3_bodies())] + list(thin_bodies())
    assert len(bodies) == 40
    return [(name, p, continuation_record(p)) for name, p in bodies]


def test_stationary_exit_changes_no_outcome(monkeypatch, outcome_records):
    # The exit only stops solves that fail anyway, so every search, ladder,
    # flag and pose is the same to the bit with it disabled; needle t=1e-3 #1
    # is the body a test of one Frobenius norm over all seven columns breaks.
    monkeypatch.setattr(inscriber, "_STATIONARY_COS", 0.0)
    for name, p, record in outcome_records:
        assert continuation_record(p) == record, name


def test_progress_stop_changes_no_outcome(monkeypatch, outcome_records):
    # The progress stop, too, ends only solves that fail anyway.  A window
    # of _MAX_ITER is never reached, which disables it.
    monkeypatch.setattr(inscriber, "_PROGRESS_WINDOW", inscriber._MAX_ITER)
    for name, p, record in outcome_records:
        assert continuation_record(p) == record, name


def test_ladder_steps_and_polishes_stay_far_below_the_iteration_cap(outcome_records):
    # One _MAX_ITER caps every solve, and only seeds reach it: each ladder
    # step after the start takes at most 12 iterations here and each final
    # polish none (2 over the survey families), so both stay within half the
    # cap.  needle t=1e-3 #2 fails, and its record holds no polish.
    ladder, polish = [], []
    for name, p, record in outcome_records:
        trace, final = json.loads(record)
        if isinstance(trace, str):  # InscriptionFailed: its message, then the last trace
            trace, final = final or {"steps": []}, None
        ladder += [(step["report"]["iterations"], name) for step in trace["steps"][1:]]
        if final is not None:
            polish.append((final["iterations"], name))
    assert len(polish) >= 39 and len(ladder) > len(polish)
    assert max(ladder)[0] <= inscriber._MAX_ITER // 2, max(ladder)
    assert max(polish)[0] <= inscriber._MAX_ITER // 2, max(polish)


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
    monkeypatch.setattr(inscriber, "_seed_poses", lambda s: iter(()))
    with pytest.raises(NoSolutionFound):
        multistart(s)


def test_seed_rotations_are_one_read_only_array():
    # The identity, then 59 super-Fibonacci rotations, built once at import.
    rotations = inscriber._SEED_ROTATIONS
    assert rotations.shape == (60, 4) and not rotations.flags.writeable
    assert rotations[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert rotations[1:].tobytes() == super_fibonacci_rotations(59).tobytes()


def test_empty_seed_search_fails_with_no_trace(monkeypatch):
    # A seed grid that yields no converged pose leaves no track to trace.
    c = cube()
    monkeypatch.setattr(inscriber, "_seed_poses", lambda s: iter(()))
    with pytest.raises(InscriptionFailed) as info:
        continue_to_surface(c)
    assert str(info.value) == (
        f"the seed search found no inscribed octahedron at epsilon={0.2 * c.inradius:.6g}"
    )
    assert info.value.trace is None


# -- continuation ----------------------------------------------------------------


def test_cube_continuation_matches_face_center_octahedron():
    c = cube()
    trace, final = continue_to_surface(c)
    assert final.converged
    assert final.epsilon == 0.0
    V = final.pose.vertices()
    d = np.linalg.norm(V[:, None, :] - AXES[None, :, :], axis=2)
    assert d.min(axis=1).max() <= 1e-9
    eps = [r.epsilon for r in trace.steps]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert all(r.converged for r in trace.steps)


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
    """Record the smoothing parameter of every solve_at_epsilon call on a
    smoothed body, passing over the polishes on the polytope; past `bound`
    such calls, fail at once."""
    epsilons = []
    real = inscriber.solve_at_epsilon

    def counted(s, *args, **kwargs):
        if isinstance(s, ConvexPolytope):
            return real(s, *args, **kwargs)
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
        start = trace.steps[0]
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

    def failing(p, start, s0):
        tried.append(_pose_key(start.pose))
        return [start], ["forced failure"], None

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
        if not isinstance(s, ConvexPolytope) and s.epsilon < eps0:
            ladder.append(s.epsilon)
            if len(ladder) == step:
                return spoil(rep)
        return rep

    monkeypatch.setattr(inscriber, "solve_at_epsilon", solve)
    _forbid_multistart(monkeypatch)
    trace, final = continue_to_surface(c)
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
    assert [r.epsilon for r in trace.steps] == [eps0 / 2**k for k in range(5)]
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
    for r in trace.steps:
        inner = SmoothedBody(p, r.epsilon).inner_body
        ref = build_from_halfspaces(p.normals, p.offsets - r.epsilon)
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
    shapes = np.random.default_rng(2024)
    return _criterion3_bodies() + [tangent_polytope(shapes, f) for f in (8, 16, 32, 64)]


def test_flat_contact_exit_keeps_the_full_ladder_pose(monkeypatch):
    for p in _ladder_bodies():
        trace, final = continue_to_surface(p)
        assert [f for f in trace.flags if f.startswith("FLAT_CONTACT")] == [
            f"FLAT_CONTACT at epsilon={trace.steps[-1].epsilon:.6g}"
        ]
        with monkeypatch.context() as m:
            _never_flat(m)
            full_trace, full = continue_to_surface(p)
        assert len(full_trace.steps) > len(trace.steps)
        assert [_pose_bits(r.pose) for r in full_trace.steps[: len(trace.steps)]] == [
            _pose_bits(r.pose) for r in trace.steps
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
        assert trace.flags == (f"FLAT_CONTACT at epsilon={trace.steps[-1].epsilon:.6g}",)
        assert builds == [r.epsilon for r in trace.steps]
        exits.append(len(trace.steps) - 1)
    assert exits[0] == 0 and max(exits) > 0


def test_fallback_queue_draws_at_most_max_solutions(monkeypatch):
    # The thin body of test_thin_body_finishes_in_bounded_solves has 26
    # solutions at eps0, and only the last has not collapsed.  With no pose
    # counted as collapsed the first solution is the start, and with every
    # track failing the queue draws no more than _MAX_SOLUTIONS in total.
    rng = np.random.default_rng(1)
    p = [random_simple_polytope(rng, n) for n in range(6, 13)][-1]
    s0 = SmoothedBody(p, 0.2 * p.inradius)
    everything = list(inscriber._solutions(s0, Counter()))
    assert len(everything) > inscriber._MAX_SOLUTIONS
    # multistart keeps the first _MAX_SOLUTIONS of them.
    capped = everything[: inscriber._MAX_SOLUTIONS]
    assert [_pose_key(r.pose) for r in multistart(s0)] == [_pose_key(r.pose) for r in capped]
    monkeypatch.setattr(inscriber, "_COLLAPSE_THRESHOLD_REL", 0.0)
    pulled = []
    real = inscriber._solutions

    def counted(*args):
        for rep in real(*args):
            pulled.append(rep)
            yield rep

    def failing(p, start, s0):
        return [start], ["forced failure"], None

    monkeypatch.setattr(inscriber, "_solutions", counted)
    monkeypatch.setattr(inscriber, "_track_from", failing)
    with pytest.raises(InscriptionFailed, match="all 4 continuation starts failed"):
        continue_to_surface(p)
    assert len(pulled) == inscriber._MAX_SOLUTIONS


def test_initial_search_counts_seeds(monkeypatch):
    c = cube()
    epsilons = _count_solves(monkeypatch)
    trace, _ = continue_to_surface(c)
    eps0 = trace.steps[0].epsilon
    search = trace.to_dict()["initial_search"]
    assert search["seeds"] == sum(e == eps0 for e in epsilons) >= 1
    assert search["converged"] == search["solutions"] == 1
    assert search["collapsed_skipped"] == 0


def test_thin_body_finishes_in_bounded_solves(monkeypatch):
    # Inradius 0.0077 * diameter.  Neither search waits for an octahedron
    # of some size: multistart keeps the first _MAX_SOLUTIONS solutions and
    # the continuation tracks the first start that has not collapsed.  A
    # seed loop that did wait could run its whole grid of about 4500 seeds.
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
    solve = inscriber.solve_at_epsilon

    def shrunk(body, seed):
        # The polish is the one solve on the polytope itself.
        rep = solve(body, seed)
        if not isinstance(body, ConvexPolytope):
            return rep
        return replace(rep, pose=OctahedronPose(rep.pose.center, rep.pose.rotation, 1e-9))

    monkeypatch.setattr(inscriber, "solve_at_epsilon", shrunk)
    with pytest.raises(InscriptionFailed) as failed:
        continue_to_surface(cube())
    # Every track fails.  The error carries the last track's trace: the
    # three earlier tracks' reasons, then every flag of its own.
    collapse = "VERTEX_COLLAPSE in the final polish"
    assert str(failed.value) == (
        "all 4 continuation starts failed (numerical failure of the search, "
        f"not a counterexample): {collapse}"
    )
    trace = failed.value.trace
    assert trace.flags == (collapse,) * 3 + ("FLAT_CONTACT at epsilon=0.05", collapse)
    assert len(trace.steps) == 3
    assert [s["epsilon"] for s in trace.to_dict()["steps"]] == [0.2, 0.1, 0.05]
    assert trace.initial_search == {"seeds": 12, "converged": 12, "solutions": 12, "collapsed_skipped": 0}


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
