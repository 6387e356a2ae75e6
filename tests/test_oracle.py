import ast
import math
from pathlib import Path

import numpy as np
import pytest

from octainscribe.angles import ClassTag, SolidAngle, placement_test, triangle_from_sides
import octainscribe.oracle
from octainscribe.generators import random_triangle
from octainscribe.oracle import (
    DirectSearchConfig,
    direct_angle_search,
    inscribed_in_cone_check,
    mc_solid_angle_area,
    membership_oracle,
    membership_oracle_batch,
)
from octainscribe.polytope import SmoothedBody, cube, regular_tetrahedron
from octainscribe.sphere import area


def test_search_small_special_angle_nonempty():
    ang = SolidAngle.from_triangle(triangle_from_sides(0.3, 0.3, 0.3))
    res = direct_angle_search(ang, DirectSearchConfig(stop_at_first=True))
    assert res.poses
    assert inscribed_in_cone_check(ang, res.poses[0], tol=1e-8)
    assert res.metadata["stopped_at_first"]


def test_search_cube_corner_empty():
    res = direct_angle_search(SolidAngle((0, 0, 0), np.eye(3)))
    assert res.poses == []
    assert res.metadata["assignments_tested"] == res.metadata["assignments_total"]


def test_search_shrunk_T0_empty():
    tri = triangle_from_sides(math.pi / 3, math.pi / 3, math.pi / 3 - 0.01)
    res = direct_angle_search(SolidAngle.from_triangle(tri))
    assert res.poses == []


def test_search_requires_trihedral():
    quad = SolidAngle(
        (0, 0, 0),
        [
            [1, 0, 0],
            np.array([1, 1, -0.2]) / np.linalg.norm([1, 1, -0.2]),
            [0, 1, 0],
            [0, 0, 1],
        ],
    )
    with pytest.raises(ValueError):
        direct_angle_search(quad)


def test_search_agrees_with_placement_minibatch():
    rng = np.random.default_rng(40)
    cfg = DirectSearchConfig(stop_at_first=True)
    for _ in range(40):
        tri = random_triangle(rng)
        cls = placement_test(tri)
        if abs(cls.margin) < 1e-6:
            continue
        res = direct_angle_search(SolidAngle.from_triangle(tri), cfg)
        assert bool(res.poses) == (cls.tag is ClassTag.SPECIAL)


def test_membership_examples():
    c = cube()
    assert membership_oracle(c, 0.1, [0, 0, 0])
    # corner region excluded by smoothing: the corner of the inner cube is
    # 0.09 * sqrt(3) ~ 0.156 > 0.1 away
    assert not membership_oracle(c, 0.1, [0.99, 0.99, 0.99])
    assert membership_oracle(c, 0.1, [1.0, 0.0, 0.0])
    assert membership_oracle(c, 0.1, [1.0, 0.0, 0.0], samples=64)


def test_membership_agrees_with_signed_distance():
    rng = np.random.default_rng(41)
    for body, eps in [(cube(), 0.1), (regular_tetrahedron(), 0.18)]:
        s = SmoothedBody(body, eps)
        X = rng.uniform(-1.2, 1.2, size=(10_000, 3)) * body.diameter / 2
        r, _ = s.signed_distance(X)
        keep = np.abs(r) > 1e-9
        oracle = membership_oracle_batch(body, eps, X[keep])
        assert np.array_equal(oracle, r[keep] <= 0)


def test_mc_octant_area():
    ang = SolidAngle((0, 0, 0), np.eye(3))
    a, se = mc_solid_angle_area(ang, samples=400_000, seed=1)
    assert abs(a - math.pi / 2) <= 3 * se


def test_mc_matches_lhuilier_on_T0():
    tri = triangle_from_sides(math.pi / 3, math.pi / 3, math.pi / 3)
    ang = SolidAngle.from_triangle(tri)
    a, se = mc_solid_angle_area(ang, samples=400_000, seed=2)
    assert abs(a - area(tri)) <= 3 * se


# -- independence from production code ------------------------------------

ORACLE_TREE = ast.parse(Path(octainscribe.oracle.__file__).read_text())

# What the reference implementation may use of the package: geometry it
# shares would let a production bug cancel out in the cross-check.
ORACLE_IMPORTS = {
    ("angles", "SolidAngle"),
    ("polytope", "ConvexPolytope"),
    ("pose", "UNIT_VERTICES"),
    ("pose", "OctahedronPose"),
    ("pose", "pose_distance"),
    ("rotations", "OCTA_GROUP"),
    ("rotations", "matrix_to_quat"),
    ("rotations", "quat_to_matrix"),
    ("rotations", "super_fibonacci_rotations"),
}
SOLID_ANGLE_READS = {"edges", "axis", "apex", "n_edges"}


def test_oracle_imports_only_its_known_names():
    imported = set()
    for node in ast.walk(ORACLE_TREE):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "octainscribe" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                imported |= {(module, a.name) for a in node.names}
            else:
                assert module.split(".")[0] != "octainscribe", f"absolute import of {module}"
    assert imported == ORACLE_IMPORTS


def test_oracle_reads_only_edges_axis_apex_of_a_solid_angle():
    reads = set()
    for fn in ast.walk(ORACLE_TREE):
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = {
            a.arg
            for a in fn.args.args
            if a.arg == "angle" or (isinstance(a.annotation, ast.Name) and a.annotation.id == "SolidAngle")
        }
        reads |= {
            node.attr
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in names
        }
    assert reads and reads <= SOLID_ANGLE_READS
    # Nor under another name: the derived quantities appear nowhere.
    attrs = {node.attr for node in ast.walk(ORACLE_TREE) if isinstance(node, ast.Attribute)}
    assert not attrs & {"facet_normal", "facet_angles", "polygon"}
