"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with -s to watch them live)."""

import json
import math
import time

import numpy as np
import pytest

from octainscribe.angles import (
    ClassTag,
    FitTag,
    SolidAngle,
    classify_trihedral,
    construct_inscribed_octahedron,
    deformation_path,
    fits_in_T0,
    placement_test,
    triangle_from_sides,
)
from octainscribe.cli import main
from octainscribe.generators import (
    nonsimple_inscribed_cone,
    random_large_side_sides,
    random_nonspecial_small_triangle,
    random_simple_polytope,
    random_small_special_sides,
    random_triangle,
    random_trihedral_angle,
)
from octainscribe.inscriber import certify, continue_to_surface
from octainscribe.oracle import (
    DirectSearchConfig,
    direct_angle_search,
    membership_oracle_batch,
)
from octainscribe.polytope import (
    SmoothedBody,
    cube,
    regular_octahedron,
    regular_tetrahedron,
    solid_angle_at,
)

AXES = np.vstack([np.eye(3), -np.eye(3)])

CUBE_OFF = """OFF
8 6 12
-1 -1 -1
-1 -1 1
-1 1 -1
-1 1 1
1 -1 -1
1 -1 1
1 1 -1
1 1 1
4 0 1 3 2
4 4 6 7 5
4 0 4 5 1
4 2 3 7 6
4 0 2 6 4
4 1 5 7 3
"""

TETRA_OFF = """OFF
4 4 6
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""


def report(line):
    print(f"\n[PASS] {line}")


def matches_axes(pose, tol):
    V = pose.vertices()
    d = np.linalg.norm(V[:, None, :] - AXES[None, :, :], axis=2)
    return float(d.min(axis=1).max()) <= tol


def test_criterion_01_cube_end_to_end(tmp_path, capsys):
    f = tmp_path / "cube.off"
    f.write_text(CUBE_OFF)
    pose_file = tmp_path / "pose.json"
    t0 = time.time()
    code = main(["inscribe", str(f), "--json", str(pose_file)])
    elapsed = time.time() - t0
    capsys.readouterr()
    assert code == 0
    doc = json.loads(pose_file.read_text())
    assert doc["certified"] is True
    residuals = np.array(doc["certification"]["residuals"])
    assert residuals.max() <= 1e-8
    from octainscribe.pose import OctahedronPose

    pose = OctahedronPose.from_dict(doc)
    # the face-center octahedron is invariant under the cube's symmetry
    # group, so matching up to that group is matching the vertex set
    assert matches_axes(pose, 1e-7)
    assert elapsed <= 10.0
    report(
        f"criterion 1: cube end-to-end, residual {residuals.max():.2e}, "
        f"face-center match, {elapsed:.2f}s"
    )


def test_criterion_02_tetrahedron_end_to_end(tmp_path, capsys):
    f = tmp_path / "tetra.off"
    f.write_text(TETRA_OFF)
    pose_file = tmp_path / "pose.json"
    t0 = time.time()
    code = main(["inscribe", str(f), "--json", str(pose_file)])
    elapsed = time.time() - t0
    capsys.readouterr()
    assert code == 0
    doc = json.loads(pose_file.read_text())
    residuals = np.array(doc["certification"]["residuals"])
    assert residuals.max() <= 1e-8
    from octainscribe.pose import OctahedronPose

    pose = OctahedronPose.from_dict(doc)
    # the edge midpoints of this tetrahedron are exactly the +-axis points
    assert matches_axes(pose, 1e-5)
    assert elapsed <= 30.0
    report(
        f"criterion 2: tetrahedron end-to-end, residual {residuals.max():.2e}, "
        f"edge-midpoint match, {elapsed:.2f}s"
    )


def test_criterion_03_random_simple_polytopes():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for k in range(20):
        p = random_simple_polytope(rng)
        trace, final = continue_to_surface(p)
        tol = 1e-7 * p.diameter
        cert = certify(p, final.pose, tol)
        assert cert.ok, f"polytope {k}: residual {cert.residuals.max():.3e} > {tol:.3e}"
        worst = max(worst, cert.residuals.max() / p.diameter)
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    report(
        f"criterion 3: 20 random simple polytopes inscribed, worst relative "
        f"residual {worst:.2e}, {elapsed:.1f}s"
    )


def _facet_plane_residual(angle, pose):
    """Max over vertices of the distance to its nearest facet plane among
    facets whose sector contains the vertex."""
    worst = 0.0
    for x in pose.vertices() - angle.apex:
        best = math.inf
        for i in range(angle.n_edges):
            ea, eb = angle.edges[i], angle.edges[(i + 1) % angle.n_edges]
            nrm = angle.facet_normal(i)
            alpha, beta, gamma = np.linalg.solve(np.column_stack([ea, eb, nrm]), x)
            lim = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            if alpha >= -lim and beta >= -lim:
                best = min(best, abs(gamma))
        worst = max(worst, best)
    return worst


def test_criterion_04_threshold_classifiers():
    rng = np.random.default_rng(404)
    t0 = time.time()
    worst_plane = 0.0
    for _ in range(100):
        sides = random_small_special_sides(rng)
        ang = SolidAngle.from_triangle(triangle_from_sides(*sides))
        cls = classify_trihedral(ang)
        assert cls.tag is ClassTag.SPECIAL
        pose = construct_inscribed_octahedron(ang, cls.certificate)
        res = _facet_plane_residual(ang, pose)
        assert res <= 1e-8 * pose.scale
        worst_plane = max(worst_plane, res / pose.scale)
    empties = 0
    for _ in range(100):
        sides = random_large_side_sides(rng)
        ang = SolidAngle.from_triangle(triangle_from_sides(*sides))
        assert classify_trihedral(ang).tag is ClassTag.NON_SPECIAL
        assert not direct_angle_search(ang).poses
        empties += 1
    elapsed = time.time() - t0
    report(
        f"criterion 4: 100 small angles special+constructed (worst plane "
        f"residual {worst_plane:.2e} x scale), {empties} large angles "
        f"non-special with empty search, {elapsed:.1f}s"
    )


def test_criterion_05_placement_search_equivalence():
    rng = np.random.default_rng(505)
    cfg = DirectSearchConfig(stop_at_first=True)
    t0 = time.time()
    total = agree = 0
    disagreements = []
    while total < 500:
        tri = random_triangle(rng)
        cls = placement_test(tri)
        if abs(cls.margin) < 1e-6:
            continue
        total += 1
        found = bool(direct_angle_search(SolidAngle.from_triangle(tri), cfg).poses)
        if found == (cls.tag is ClassTag.SPECIAL):
            agree += 1
        else:
            disagreements.append((tri.sides, cls.tag.value, cls.margin))
    elapsed = time.time() - t0
    for sides, tag, margin in disagreements:
        print(f"  disagreement: sides={sides} placement={tag} margin={margin:.3e}")
        assert abs(margin) < 1e-3, "disagreement with a clear margin is a real bug"
    assert agree / total >= 0.99
    report(
        f"criterion 5: placement vs direct search agree on {agree}/{total} "
        f"({100 * agree / total:.1f}%), {elapsed:.0f}s"
    )


def test_criterion_06_remark_regression():
    tri = triangle_from_sides(math.pi / 3, math.pi / 3, math.pi / 3 - 0.01)
    cls = placement_test(tri)
    assert cls.tag is ClassTag.NON_SPECIAL
    res = direct_angle_search(SolidAngle.from_triangle(tri))
    assert res.poses == []
    report(
        f"criterion 6: shrunk-T0 triangle non-special (margin {cls.margin:.3e}) "
        "and direct search empty"
    )


def test_criterion_07_deformation_paths():
    rng = np.random.default_rng(707)
    t0 = time.time()
    for _ in range(100):
        tri = random_nonspecial_small_triangle(rng)
        assert max(tri.sides) < math.pi / 3
        path = deformation_path(tri, steps=50)
        assert len(path) >= 50
        for t in path:
            assert placement_test(t).tag is ClassTag.NON_SPECIAL
        assert max(path[-1].sides) > math.pi / 3 + 0.01
    elapsed = time.time() - t0
    report(f"criterion 7: 100 deformation paths of 50 steps, all non-special, {elapsed:.0f}s")


def test_criterion_08_T0_fit_necessity():
    rng = np.random.default_rng(808)
    t0 = time.time()
    margins = []
    for _ in range(50):
        angle4, pose = nonsimple_inscribed_cone(rng)
        assert angle4.n_edges == 4
        fit = fits_in_T0(angle4.polygon)
        assert fit.tag is not FitTag.NO_FIT
        margins.append(fit.margin)
    elapsed = time.time() - t0
    report(
        f"criterion 8: 50 non-simple angles with inscribed octahedra, "
        f"fit margins in [{min(margins):.3f}, {max(margins):.3f}], never NO_FIT, {elapsed:.0f}s"
    )


def test_criterion_09_smoothing_correctness():
    rng = np.random.default_rng(909)
    t0 = time.time()
    bodies = [
        cube(),
        regular_tetrahedron(),
        regular_octahedron(),
        random_simple_polytope(rng),
        random_simple_polytope(rng),
    ]
    oracle_s = 0.0
    for body in bodies:
        eps = 0.3 * body.inradius
        s = SmoothedBody(body, eps)
        X = body.center + rng.uniform(-1, 1, size=(100_000, 3)) * body.diameter
        r, _ = s.signed_distance(X)
        keep = np.abs(r) > 1e-9
        t = time.time()
        oracle = membership_oracle_batch(body, eps, X[keep])
        oracle_s += time.time() - t
        assert np.array_equal(oracle, r[keep] <= 0), "sign disagreement outside the band"

    s = SmoothedBody(cube(), 0.15)
    h = 1e-6 * s.base.diameter
    checked = 0
    worst = 0.0
    while checked < 1000:
        x = rng.uniform(-1.3, 1.3, 3)
        (r,), (g,) = s.signed_distance(np.reshape(x, (1, 3)))
        if r < -s.epsilon + 10 * h:
            continue
        fd = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd[k] = (
                s.signed_distance(np.reshape(x + e, (1, 3)))[0][0]
                - s.signed_distance(np.reshape(x - e, (1, 3)))[0][0]
            ) / (2 * h)
        err = np.abs(fd - g).max() / max(1.0, np.abs(g).max())
        worst = max(worst, err)
        assert err <= 1e-5
        checked += 1
    elapsed = time.time() - t0
    report(
        f"criterion 9: smoothing sign agreement on 5 x 100k points, gradient "
        f"FD error <= {worst:.2e} at 1000 points, {elapsed:.0f}s ({oracle_s:.1f}s in the membership oracle)"
    )


def test_criterion_10_numeric_anchors():
    from octainscribe.sphere import SphTriangle, area, vertex_angle

    t0_tri = triangle_from_sides(math.pi / 3, math.pi / 3, math.pi / 3)
    a = area(t0_tri)
    assert abs(a - (3 * math.acos(1.0 / 3.0) - math.pi)) <= 1e-12
    for i in range(3):
        assert abs(vertex_angle(t0_tri, i) - math.acos(1.0 / 3.0)) <= 1e-12
    corner = solid_angle_at(cube(), 0)
    assert np.allclose(corner.facet_angles(), math.pi / 2, atol=0)
    tri = SphTriangle(*corner.edges)
    assert np.allclose(tri.sides, math.pi / 2, atol=0)
    report(
        f"criterion 10: area(T0) = {a:.15f} and vertex angle arccos(1/3) within "
        "1e-12; cube-corner facet angles exactly pi/2"
    )
