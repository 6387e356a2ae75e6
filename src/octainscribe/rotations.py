"""Quaternion and SO(3) utilities: conversions, tangent-space updates,
deterministic low-discrepancy rotation sampling, and the rotation group
of the coordinate octahedron.

Quaternions are numpy arrays [w, x, y, z] of unit norm; q and -q denote
the same rotation and are canonicalized on demand.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "quat_normalize",
    "quat_canonical",
    "quat_multiply",
    "quat_to_matrix",
    "matrix_to_quat",
    "quat_from_rotvec",
    "apply_rotvec",
    "super_fibonacci_rotations",
    "octahedron_rotation_group",
    "IDENTITY_QUAT",
]

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(4)
    n = math.sqrt(q @ q)
    if n < 1e-14:
        raise ValueError("cannot normalize a near-zero quaternion")
    return q / n


def quat_canonical(q) -> np.ndarray:
    """Fix the double-cover sign of the normalized quaternion: the first
    component with |x| > 1e-13 is made positive, whatever its magnitude
    against the later ones ([0.1, -0.9, 0.3, 0.3] stays as it is)."""
    q = quat_normalize(q)
    for x in q:
        if x > 1e-13:
            return q
        if x < -1e-13:
            return -q
    return q


def quat_multiply(a, b) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def _quats_to_matrices(Q) -> np.ndarray:
    """Rotation matrices of quaternions taken as given (unit input gives
    proper rotations): shape (4,) -> (3, 3), or (k, 4) -> (k, 3, 3).

    A single quaternion is worked in numpy scalars, several times faster
    than a batch of one, with the same floating-point operations.
    """
    w, x, y, z = Q.T
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    # (3, 3, k) -> (k, 3, 3); a no-op for a single (3, 3) matrix.
    return m.T.swapaxes(-1, -2)


def quat_to_matrix(q) -> np.ndarray:
    return _quats_to_matrices(quat_normalize(q))


def matrix_to_quat(m) -> np.ndarray:
    """Rotation matrix to unit quaternion (Shepperd's branch selection)."""
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diagonal(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2
        q = np.zeros(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    return quat_canonical(q)


def quat_from_rotvec(w) -> np.ndarray:
    """Exponential map, rotation vector w -> unit quaternion, (3,) -> (4,) or (k, 3) -> (k, 4):
    [cos(theta/2), sin(theta/2) w / theta], through sinc so with no small-angle branch."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    return np.concatenate([np.cos(0.5 * theta), 0.5 * np.sinc(theta / (2 * math.pi)) * w], axis=-1)


def apply_rotvec(q, w) -> np.ndarray:
    """Left-perturb a rotation by a world-frame rotation vector.  The
    product of unit quaternions is unit to rounding and is not normalized
    again: `OctahedronPose` normalizes its rotation once."""
    return quat_multiply(quat_from_rotvec(w), q)


def super_fibonacci_rotations(n: int) -> np.ndarray:
    """n deterministic, well-spread unit quaternions (n x 4).

    Super-Fibonacci spiral sampling of SO(3) (Alexa, CVPR 2022); fully
    deterministic, no RNG involved.
    """
    if n <= 0:
        return np.zeros((0, 4))
    phi = math.sqrt(2.0)
    psi = 1.533751168755204288118041
    s = np.arange(n, dtype=float) + 0.5
    t = s / n
    r = np.sqrt(t)
    big_r = np.sqrt(1.0 - t)
    alpha = 2.0 * math.pi * s / phi
    beta = 2.0 * math.pi * s / psi
    return np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), big_r * np.sin(beta), big_r * np.cos(beta)], axis=1
    )


def _signed_permutation_matrices():
    from itertools import permutations, product

    for perm in permutations(range(3)):
        for signs in product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for row, (col, sg) in enumerate(zip(perm, signs)):
                m[row, col] = sg
            yield m


def octahedron_rotation_group() -> np.ndarray:
    """The 24 rotation matrices mapping the vertex set {+-e_i} to itself."""
    mats = [m for m in _signed_permutation_matrices() if np.linalg.det(m) > 0]
    assert len(mats) == 24
    return np.array(mats)


OCTA_GROUP = octahedron_rotation_group()
OCTA_GROUP_QUATS = np.array([matrix_to_quat(m) for m in OCTA_GROUP])
