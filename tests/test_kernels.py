"""The 3-vector kernels of `sphere` and the arrays a pose computes once.

Each kernel replaces a numpy call on the hot paths and must give its bits:
`_cross` those of np.cross, `_norm3` those of np.linalg.norm(axis=-1).
The references here are the numpy calls and the formulas the replaced code
used, kept as test-only copies."""

import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import octainscribe
from octainscribe import angles, rotations
from octainscribe.angles import ClassTag, classify_trihedral, construct_inscribed_octahedron
from octainscribe.generators import random_trihedral_angle
from octainscribe.inscriber import _apply_step, residual
from octainscribe.pose import UNIT_VERTICES, OctahedronPose, pose_distance
from octainscribe.rotations import OCTA_GROUP_QUATS, _quats_to_matrices, quat_multiply, quat_normalize
from octainscribe.sphere import _cross, _norm3

# Operand shape pairs that broadcast: one vector against rows, rows against
# rows, and an outer product of two row sets.
SHAPES = st.sampled_from(["v-rows", "rows-v", "rows-rows", "outer"])


def operands(rng, kind, n, m, scales):
    def draw(shape, s):
        return rng.normal(size=shape) * 10.0 ** (s + rng.uniform(-1, 1, size=shape[:-1] + (1,)))

    shape_a, shape_b = {
        "v-rows": ((3,), (n, 3)),
        "rows-v": ((n, 3), (3,)),
        "rows-rows": ((n, 3), (n, 3)),
        "outer": ((n, 1, 3), (1, m, 3)),
    }[kind]
    return draw(shape_a, scales[0]), draw(shape_b, scales[1])


@settings(max_examples=300, deadline=None)
@given(
    SHAPES,
    st.integers(1, 9),
    st.integers(1, 9),
    st.tuples(st.floats(-99, 99), st.floats(-99, 99)),
    st.integers(0, 2**32 - 1),
)
def test_cross_has_the_bits_of_np_cross(kind, n, m, scales, seed):
    a, b = operands(np.random.default_rng(seed), kind, n, m, scales)
    got, ref = _cross(a, b), np.cross(a, b)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=300, deadline=None)
@given(SHAPES, st.integers(1, 9), st.integers(1, 9), st.floats(-99, 99), st.integers(0, 2**32 - 1))
def test_norm3_has_the_bits_of_linalg_norm(kind, n, m, scale, seed):
    a, b = operands(np.random.default_rng(seed), kind, n, m, (scale, scale))
    for d in (a, b, a - b):
        got, ref = _norm3(d), np.linalg.norm(d, axis=-1)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_single_vector_norm_has_the_bits_of_linalg_norm():
    rng = np.random.default_rng(1)
    for v in rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-100, 100, size=(2000, 1)):
        assert math.sqrt(v @ v) == float(np.linalg.norm(v))


def random_pose(rng):
    return OctahedronPose(rng.normal(size=3), quat_normalize(rng.normal(size=4)), rng.uniform(0.1, 3.0))


def test_pose_computes_its_matrix_once_with_the_bits_of_quat_to_matrix():
    rng = np.random.default_rng(2)
    for _ in range(200):
        pose = random_pose(rng)
        R = _quats_to_matrices(pose.rotation)
        # The matrix is not kept: its arms are all the solver reads.
        assert not hasattr(pose, "matrix")
        assert pose.arms.tobytes() == (UNIT_VERTICES @ R.T).tobytes()
        ref = pose.center + pose.scale * (UNIT_VERTICES @ R.T)
        assert pose.vertices().tobytes() == ref.tobytes()


def test_lm_step_normalizes_the_quaternion_once(monkeypatch):
    # The pose normalizes in quat_canonical; neither the rotation update
    # nor the matrix normalizes again.
    calls = []
    real = rotations.quat_normalize

    def counting(q):
        calls.append(1)
        return real(q)

    rng = np.random.default_rng(6)
    poses = [random_pose(rng) for _ in range(20)]
    monkeypatch.setattr(rotations, "quat_normalize", counting)
    for pose in poses:
        calls.clear()
        _apply_step(pose, rng.normal(size=7) * 0.1)
        assert len(calls) == 1


def test_pose_arrays_are_read_only_and_its_own():
    center = np.array([1.0, 2.0, 3.0])
    pose = OctahedronPose(center, np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
    for arr in (pose.center, pose.rotation, pose.arms):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    center[0] = 5.0  # the caller's array stays writeable and apart
    assert pose.center[0] == 1.0


def test_jacobian_matches_the_cross_product_formula():
    # A stub body hands `residual` the gradients.
    rng = np.random.default_rng(3)
    for _ in range(200):
        pose = random_pose(rng)
        grad = rng.normal(size=(6, 3))
        body = SimpleNamespace(signed_distance=lambda points: (np.zeros(len(points)), grad))
        R = _quats_to_matrices(pose.rotation)
        arms = pose.scale * (UNIT_VERTICES @ R.T)
        ref = np.zeros((6, 7))
        ref[:, :3] = grad
        ref[:, 3:6] = np.cross(arms, grad)
        ref[:, 6] = np.einsum("ij,ij->i", grad, UNIT_VERTICES @ R.T)
        assert residual(body, pose)[1].tobytes() == ref.tobytes()


def test_sector_coordinates_match_per_vertex_solves():
    rng = np.random.default_rng(4)
    built = 0
    while built < 100:
        ang = random_trihedral_angle(rng)
        cls = classify_trihedral(ang)
        if cls.tag is not ClassTag.SPECIAL:
            continue
        pose = construct_inscribed_octahedron(ang, cls.certificate)
        lab = cls.certificate.labeling
        W = ang.edges[list(lab)]
        normals = np.array([ang.facet_normal((lab[third] + 1) % 3) for third in (2, 1, 0)])
        x = pose.vertices() - ang.apex
        facets = ((W[0], W[1]), (W[0], W[2]), (W[1], W[2]))
        ref = np.array(
            [
                np.linalg.solve(np.column_stack([*facets[f], normals[f]]), x[k])
                for k, f in enumerate(angles._CONSTRUCT_FACET)
            ]
        )
        assert angles._sector_coordinates(W, normals, x).tobytes() == ref.tobytes()
        built += 1


def reference_pose_distance(a, b):
    """pose_distance as a loop over the group, without renormalizing."""
    dc = float(np.linalg.norm(a.center - b.center))
    best = min(
        min(np.linalg.norm(quat_multiply(a.rotation, g) - s * b.rotation) for s in (1.0, -1.0))
        for g in OCTA_GROUP_QUATS
    )
    return dc + abs(a.scale - b.scale) + best * max(a.scale, b.scale)


def test_pose_distance_is_zero_on_the_same_pose_and_its_symmetries():
    rng = np.random.default_rng(5)
    for _ in range(500):
        p = random_pose(rng)
        assert pose_distance(p, p) == 0.0
        # The same vertex set under another group element, and a moved pose.
        g = OCTA_GROUP_QUATS[rng.integers(24)]
        same = OctahedronPose(p.center, quat_multiply(p.rotation, g), p.scale)
        assert pose_distance(p, same) <= 1e-14 * p.scale
        q = random_pose(rng)
        assert abs(pose_distance(p, q) - reference_pose_distance(p, q)) <= 1e-14 * max(p.scale, q.scale)


def numpy_cross_calls(path):
    """Line numbers of every np.cross / numpy.cross reference, and of every
    `from numpy import cross`, in a module."""
    tree = ast.parse(Path(path).read_text())
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "cross"
            and isinstance(node.value, ast.Name)
            and node.value.id in {"np", "numpy"}
        )
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("numpy")
            and any(alias.name == "cross" for alias in node.names)
        )
    ]


def test_only_the_oracle_calls_np_cross():
    # `sphere._cross` is the one cross-product path; the oracle keeps its
    # own np.cross to stay independent of production code.
    package = Path(octainscribe.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    found = {m.name: numpy_cross_calls(m) for m in modules if m.name != "oracle.py"}
    assert not any(found.values()), {k: v for k, v in found.items() if v}
    assert numpy_cross_calls(package / "oracle.py")
