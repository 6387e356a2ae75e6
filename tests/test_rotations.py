import numpy as np
import pytest

from octainscribe.rotations import (
    OCTA_GROUP,
    _quats_to_matrices,
    apply_rotvec,
    matrix_to_quat,
    quat_canonical,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    super_fibonacci_rotations,
)


def test_group_order_and_closure():
    g = OCTA_GROUP
    assert len(g) == 24
    assert np.array_equal(g[0], np.eye(3))
    # No -0.0 entries: the group's quaternions, and through them
    # pose_distance, depend on these bits.
    assert not np.signbit(g[g == 0]).any()
    assert all(abs(np.linalg.det(m) - 1) < 1e-12 for m in g)
    # closure: product of two members is a member
    prod = g[3] @ g[17]
    assert any(np.allclose(prod, m) for m in g)


def test_group_preserves_vertex_set():
    axes = np.vstack([np.eye(3), -np.eye(3)])
    for m in OCTA_GROUP:
        img = axes @ m.T
        for v in img:
            assert any(np.allclose(v, w) for w in axes)


def test_quat_matrix_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        m = quat_to_matrix(q)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        q2 = matrix_to_quat(m)
        assert np.allclose(quat_to_matrix(q2), m, atol=1e-12)


def test_quat_multiply_consistent_with_matrices():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=4), rng.normal(size=4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    assert np.allclose(
        quat_to_matrix(quat_multiply(a, b)), quat_to_matrix(a) @ quat_to_matrix(b), atol=1e-12
    )


def test_canonical_sign():
    q = np.array([-0.5, 0.5, 0.5, 0.5])
    c = quat_canonical(q)
    assert c[0] > 0
    # The first component above 1e-13 in magnitude sets the sign, not the largest.
    q = np.array([0.1, -0.9, 0.3, 0.3])
    assert np.array_equal(quat_canonical(q), q / np.linalg.norm(q))
    q = np.array([1e-14, -0.9, 0.3, 0.3])
    assert np.array_equal(quat_canonical(q), -q / np.linalg.norm(q))


def test_apply_rotvec_small_angle():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    w = np.array([0.0, 0.0, 1e-3])
    m = quat_to_matrix(apply_rotvec(q, w))
    assert m[1, 0] == pytest.approx(1e-3, rel=1e-5)


def test_quat_from_rotvec_batch_matches_axis_angle():
    # One rotation vector is worked in Python floats (math.sqrt, math.sin,
    # math.cos); it must give a batch row's bytes, |w| from exactly 0 through
    # 1e-300 and 1e-12 up to pi, and so must the rotation update built on it.
    rng = np.random.default_rng(7)
    n = 10_000
    W = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-9, 1, size=(20, 1))
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    mags = np.concatenate(
        [
            [0.0, 1e-300, 1e-12, np.pi],
            10.0 ** rng.uniform(-300, np.log10(np.pi), n // 2 - 4),
            rng.uniform(0.0, np.pi, n - n // 2),
        ]
    )
    W = np.vstack([W, np.zeros(3), dirs * mags[:, None]])
    Q = quat_from_rotvec(W)
    assert Q.shape == (n + 21, 4)
    assert np.allclose(np.linalg.norm(Q, axis=1), 1.0, atol=1e-15)
    P = rng.normal(size=(n + 21, 4))
    P /= np.linalg.norm(P, axis=1)[:, None]
    for w, q, p in zip(W, Q, P):
        assert quat_from_rotvec(w).tobytes() == q.tobytes(), f"|w| = {np.linalg.norm(w)!r}"
        assert apply_rotvec(p, w).tobytes() == quat_multiply(q, p).tobytes()
        theta = np.linalg.norm(w)
        if theta > 0:
            axis_angle = np.concatenate([[np.cos(theta / 2)], np.sin(theta / 2) * w / theta])
            assert np.allclose(q, axis_angle, rtol=0, atol=1e-15)
    assert np.array_equal(quat_from_rotvec(W[7].tolist()), Q[7])
    assert np.array_equal(apply_rotvec(P[7].tolist(), W[7].tolist()), apply_rotvec(P[7], W[7]))


def test_super_fibonacci_deterministic_and_unit():
    a = super_fibonacci_rotations(100)
    b = super_fibonacci_rotations(100)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    # reasonably spread: no two samples identical
    d = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2) + np.eye(100)
    assert d.min() > 1e-3
    # A count below 1 gives an empty grid and no warning (RuntimeWarning is an error here).
    for n in (0, -3):
        empty = super_fibonacci_rotations(n)
        assert empty.shape == (0, 4) and empty.dtype == np.float64


def test_batch_matrices_match_quat_to_matrix_bitwise():
    Q = super_fibonacci_rotations(1000)
    single = np.array([quat_to_matrix(q) for q in Q])
    assert np.array_equal(_quats_to_matrices(np.array([quat_normalize(q) for q in Q])), single)
