"""Octahedron poses: a point of the positive-similarity configuration
space (translation x rotation x positive scale), together with the vertex
generator and the symmetry-quotient comparisons used for deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rotations import (
    OCTA_GROUP_QUATS,
    quat_canonical,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
)

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
    """

    center: np.ndarray
    rotation: np.ndarray
    scale: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        q = quat_canonical(self.rotation)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "scale", float(self.scale))
        if not self.scale > 0:
            raise ValueError(f"pose scale must be positive, got {self.scale}")

    @property
    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def vertices(self) -> np.ndarray:
        """6 x 3 array of vertex positions in the fixed label order."""
        return self.center + self.scale * (UNIT_VERTICES @ self.matrix.T)

    def edge_length(self) -> float:
        return self.scale * np.sqrt(2.0)

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
        return cls(np.array(d["center"], float), quat_normalize(d["rotation"]), float(d["scale"]))

    def __repr__(self):
        c = ", ".join(f"{x:.6g}" for x in self.center)
        q = ", ".join(f"{x:.6g}" for x in self.rotation)
        return f"OctahedronPose(center=({c}), rotation=({q}), scale={self.scale:.6g})"


def pose_distance(a: OctahedronPose, b: OctahedronPose) -> float:
    """Distance between poses quotiented by the octahedron's own rotation
    group: two poses generating the same vertex set compare as 0.

    Units are lengths (rotation mismatch is weighted by scale).
    """
    dc = float(np.linalg.norm(a.center - b.center))
    ds = abs(a.scale - b.scale)
    best = np.inf
    qb = b.rotation
    for g in OCTA_GROUP_QUATS:
        qa = quat_canonical(quat_multiply(a.rotation, g))
        dq = min(float(np.linalg.norm(qa - qb)), float(np.linalg.norm(qa + qb)))
        best = min(best, dq)
    return dc + ds + best * max(a.scale, b.scale)
