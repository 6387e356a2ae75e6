"""Octahedron poses: a point of the positive-similarity configuration
space (translation x rotation x positive scale), together with the vertex
generator and the symmetry-quotient comparisons used for deduplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rotations import OCTA_GROUP_QUATS, _quats_to_matrices, quat_canonical, quat_multiply

__all__ = ["OctahedronPose", "UNIT_VERTICES", "pose_distance"]

# Vertex labels in a fixed order: +x, -x, +y, -y, +z, -z.
UNIT_VERTICES = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
    ]
)

# Faces as vertex-index triples with outward winding, for OBJ export.
OCTA_FACES = (
    (0, 2, 4),
    (2, 1, 4),
    (1, 3, 4),
    (3, 0, 4),
    (2, 0, 5),
    (1, 2, 5),
    (3, 1, 5),
    (0, 3, 5),
)


@dataclass(frozen=True, eq=False)
class OctahedronPose:
    """Center, unit-quaternion rotation and positive scale.

    The generated vertex set {center +- scale * R e_i} is a perfectly
    regular octahedron by construction; `scale` is the center-to-vertex
    distance, so the diameter is 2 * scale.

    The center, rotation and scale must be finite (ValueError otherwise).
    The pose normalizes its quaternion once, on construction, in
    `quat_canonical`, and computes from it its unit arms R e_i in the
    fixed label order (`arms`, 6 x 3), R the rotation matrix.
    `center`, `rotation` and `arms` are read-only arrays of the pose's
    own.
    """

    center: np.ndarray
    rotation: np.ndarray
    scale: float
    arms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = np.array(self.center, dtype=float).reshape(3)
        r = np.asarray(self.rotation, dtype=float)
        s = float(self.scale)
        if not all(map(math.isfinite, [*c.tolist(), *r.ravel().tolist(), s])):
            raise ValueError("pose center, rotation and scale must be finite")
        q = quat_canonical(r)
        arms = UNIT_VERTICES @ _quats_to_matrices(q).T
        for name, arr in (("center", c), ("rotation", q), ("arms", arms)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "scale", s)
        if not s > 0:
            raise ValueError(f"pose scale must be positive, got {self.scale}")

    def vertices(self) -> np.ndarray:
        """6 x 3 array of vertex positions in the fixed label order."""
        return self.center + self.scale * self.arms

    def diameter(self) -> float:
        return 2.0 * self.scale

    def to_dict(self) -> dict:
        return {
            "center": [float(x) for x in self.center],
            "rotation": [float(x) for x in self.rotation],
            "scale": float(self.scale),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OctahedronPose":
        """ValueError unless d is an object whose center, rotation and scale are numbers."""
        if not isinstance(d, dict):
            raise ValueError("pose JSON must be an object")
        try:
            center, rotation = (np.asarray(d[k], dtype=float) for k in ("center", "rotation"))
            scale = float(d["scale"])
        except TypeError as exc:
            raise ValueError(f"pose center, rotation and scale must be numbers: {exc}") from exc
        return cls(center, rotation, scale)

    def __repr__(self):
        c = ", ".join(f"{x:.6g}" for x in self.center)
        q = ", ".join(f"{x:.6g}" for x in self.rotation)
        return f"OctahedronPose(center=({c}), rotation=({q}), scale={self.scale:.6g})"


def pose_distance(a: OctahedronPose, b: OctahedronPose) -> float:
    """Distance between poses quotiented by the octahedron's own rotation
    group: two poses generating the same vertex set compare as 0.

    Units are lengths (rotation mismatch is weighted by scale).  The
    rotation term is the least |q g -+ q_b| over the 24 group elements g,
    from one (24, 4) quaternion product; the minimum over both signs
    makes a sign convention needless.  The identity element's product is
    exact, so a pose compared with itself gives exactly 0.
    """
    d = a.center - b.center
    dc = math.sqrt(d @ d)
    ds = abs(a.scale - b.scale)
    qa = quat_multiply(a.rotation, OCTA_GROUP_QUATS.T).T
    qb = b.rotation
    best = float(np.minimum(np.linalg.norm(qa - qb, axis=1), np.linalg.norm(qa + qb, axis=1)).min())
    return dc + ds + best * max(a.scale, b.scale)
